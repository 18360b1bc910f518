// Copyright 2026 The balanced-clique Authors.
//
// Figure 13: running time of gMBC vs gMBC* for the generalized maximum
// balanced clique problem. Both solve MBC* once per τ; gMBC* first
// computes β(G) with PF* and then walks τ downward, seeding each run with
// the solution for τ+1 (Lemma 6). Expected shape: gMBC* consistently
// faster thanks to the computation sharing; both scale with β(G).
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/gmbc/gmbc.h"

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader("Runtime of gMBC vs gMBC*", "Figure 13");

  const double budget = mbc::BaselineTimeLimitSeconds() * 6;

  TablePrinter table(
      {"Dataset", "gMBC", "gMBC*", "speedup", "beta", "MBC*-calls"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    mbc::Timer timer;
    mbc::ExecutionContext plain_exec;
    mbc::GeneralizedMbcOptions plain_options;
    plain_options.exec = mbc::ConfigureRunContext(&plain_exec, budget);
    const mbc::GeneralizedMbcResult plain =
        mbc::GeneralizedMbc(dataset.graph, plain_options);
    const double plain_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext star_exec;
    mbc::GeneralizedMbcOptions star_options;
    star_options.exec = mbc::ConfigureRunContext(&star_exec, budget);
    const mbc::GeneralizedMbcResult star =
        mbc::GeneralizedMbcStar(dataset.graph, star_options);
    const double star_seconds = timer.ElapsedSeconds();

    if (!plain_exec.Interrupted() && !star_exec.Interrupted() &&
        plain.beta != star.beta) {
      std::fprintf(stderr, "BUG: gMBC and gMBC* disagree on %s\n",
                   dataset.spec.name.c_str());
      return 1;
    }
    table.AddRow({dataset.spec.name,
                  TablePrinter::MarkIf(plain_exec.Interrupted(), '>',
                      TablePrinter::FormatSeconds(plain_seconds)),
                  TablePrinter::MarkIf(star_exec.Interrupted(), '>',
                      TablePrinter::FormatSeconds(star_seconds)),
                  TablePrinter::FormatDouble(
                      star_seconds > 0 ? plain_seconds / star_seconds : 0.0,
                      1) +
                      "x",
                  std::to_string(star.beta),
                  std::to_string(star.num_mbc_calls)});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(paper shape: gMBC* consistently faster than gMBC; the advantage\n"
      " and the absolute times grow with beta(G))\n");
  return 0;
}
