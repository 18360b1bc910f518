// Copyright 2026 The balanced-clique Authors.
//
// Figure 6: running time of MBC, MBC-noER, MBC* and MBC*-withER on all
// datasets at τ = 3. Expected shape: MBC* beats the enumeration baseline
// by orders of magnitude everywhere; EdgeReduction helps the slow MBC but
// hurts the fast MBC*. The exponential baselines run under MBC_TIME_LIMIT
// (the paper instead let them run for hours); ">limit" marks a timeout.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_star.h"

namespace {

std::string TimeOrLimit(double seconds, const mbc::ExecutionContext& exec) {
  std::string formatted = mbc::TablePrinter::FormatSeconds(seconds);
  if (exec.Interrupted()) formatted.insert(0, 1, '>');
  return formatted;
}

}  // namespace

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader(
      "Runtime of MBC / MBC-noER / MBC* / MBC*-withER (tau = 3)",
      "Figure 6");
  const double limit = mbc::BaselineTimeLimitSeconds();
  const uint32_t tau = 3;

  TablePrinter table({"Dataset", "MBC", "MBC-noER", "MBC*", "MBC*-withER",
                      "speedup", "|C*|"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    const mbc::SignedGraph& graph = dataset.graph;

    mbc::Timer timer;
    mbc::ExecutionContext with_er_exec;
    mbc::MbcBaselineOptions baseline_options;
    baseline_options.exec = mbc::ConfigureRunContext(&with_er_exec, limit);
    (void)mbc::MaxBalancedCliqueBaseline(graph, tau, baseline_options);
    const double mbc_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext no_er_exec;
    baseline_options.apply_edge_reduction = false;
    baseline_options.exec = mbc::ConfigureRunContext(&no_er_exec, limit);
    (void)mbc::MaxBalancedCliqueBaseline(graph, tau, baseline_options);
    const double noer_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext star_exec;
    mbc::MbcStarOptions star_options;
    star_options.exec = mbc::ConfigureRunContext(&star_exec, limit * 6);
    const mbc::MbcStarResult star =
        mbc::MaxBalancedCliqueStar(graph, tau, star_options);
    const double star_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext star_er_exec;
    star_options.apply_edge_reduction = true;
    star_options.exec = mbc::ConfigureRunContext(&star_er_exec, limit * 6);
    (void)mbc::MaxBalancedCliqueStar(graph, tau, star_options);
    const double star_er_seconds = timer.ElapsedSeconds();

    table.AddRow(
        {dataset.spec.name, TimeOrLimit(mbc_seconds, with_er_exec),
         TimeOrLimit(noer_seconds, no_er_exec),
         TimeOrLimit(star_seconds, star_exec),
         TimeOrLimit(star_er_seconds, star_er_exec),
         TablePrinter::FormatDouble(
             star_seconds > 0 ? mbc_seconds / star_seconds : 0.0, 0) +
             "x" + (with_er_exec.Interrupted() ? "+" : ""),
         std::to_string(star.clique.size())});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(paper shape: MBC* up to three orders of magnitude faster than MBC;\n"
      " EdgeReduction helps MBC but slows MBC*; '+' = true speedup larger,\n"
      " baseline hit its time budget)\n");
  return 0;
}
