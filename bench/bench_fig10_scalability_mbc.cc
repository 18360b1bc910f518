// Copyright 2026 The balanced-clique Authors.
//
// Figure 10: scalability of MBC, MBC-Adv and MBC* on DBLP and Douban —
// vertex-induced random samples from 20% to 100% of the graph (τ = 3).
// Expected shape: every algorithm's time grows with the sample, MBC*
// dominates at every size and scales the most gracefully.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/env.h"
#include "src/common/timer.h"
#include "src/core/mbc_adv.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_star.h"
#include "src/graph/sampling.h"

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader(
      "Scalability of MBC / MBC-Adv / MBC* (tau = 3, vertex samples)",
      "Figure 10");
  if (mbc::GetEnvString("MBC_DATASETS", "").empty()) {
    setenv("MBC_DATASETS", "DBLP,Douban", 0);
  }
  const double limit = mbc::BaselineTimeLimitSeconds();
  const uint32_t tau = 3;

  TablePrinter table({"Dataset", "sample", "n", "m", "MBC", "MBC-Adv",
                      "MBC*"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    for (int percent = 20; percent <= 100; percent += 20) {
      const mbc::SignedGraph sample = mbc::SampleVertexInducedSubgraph(
          dataset.graph, percent / 100.0, /*seed=*/1234 + percent);

      mbc::Timer timer;
      mbc::ExecutionContext baseline_exec;
      mbc::MbcBaselineOptions baseline_options;
      baseline_options.exec = mbc::ConfigureRunContext(&baseline_exec, limit);
      (void)mbc::MaxBalancedCliqueBaseline(sample, tau, baseline_options);
      const double baseline_seconds = timer.ElapsedSeconds();

      timer.Restart();
      mbc::ExecutionContext adv_exec;
      mbc::MbcAdvOptions adv_options;
      adv_options.exec = mbc::ConfigureRunContext(&adv_exec, limit * 3);
      (void)mbc::MaxBalancedCliqueAdv(sample, tau, adv_options);
      const double adv_seconds = timer.ElapsedSeconds();

      timer.Restart();
      mbc::ExecutionContext star_exec;
      mbc::MbcStarOptions star_options;
      star_options.exec = mbc::ConfigureRunContext(&star_exec, limit * 6);
      (void)mbc::MaxBalancedCliqueStar(sample, tau, star_options);
      const double star_seconds = timer.ElapsedSeconds();

      table.AddRow({dataset.spec.name, std::to_string(percent) + "%",
                    TablePrinter::FormatCount(sample.NumVertices()),
                    TablePrinter::FormatCount(sample.NumEdges()),
                    TablePrinter::MarkIf(baseline_exec.Interrupted(), '>',
                        TablePrinter::FormatSeconds(baseline_seconds)),
                    TablePrinter::MarkIf(adv_exec.Interrupted(), '>',
                        TablePrinter::FormatSeconds(adv_seconds)),
                    TablePrinter::MarkIf(star_exec.Interrupted(), '>',
                        TablePrinter::FormatSeconds(star_seconds))});
    }
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(paper shape: all curves rise with the sample size; MBC* below\n"
      " MBC-Adv below MBC at every point)\n");
  return 0;
}
