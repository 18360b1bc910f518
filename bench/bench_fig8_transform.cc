// Copyright 2026 The balanced-clique Authors.
//
// Figure 8: the influence of the MDC transformation. MBC* (which
// transforms each search into a maximum dichromatic clique problem over a
// sparsified, sign-free network) vs MBC-Adv (same framework, but keeps
// the signed ego-network intact and bounds on the raw unsigned skeleton).
// Expected shape: MBC* more than an order of magnitude faster.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/core/mbc_adv.h"
#include "src/core/mbc_star.h"

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader("Influence of the MDC transformation (tau = 3)",
                             "Figure 8");
  const double limit = mbc::BaselineTimeLimitSeconds();
  const uint32_t tau = 3;

  // The heuristic seed solves most stand-ins outright and masks the
  // transformation's effect, so both solvers also run WITHOUT the seed
  // ("pure search", closest to what Figure 8 isolates).
  TablePrinter table({"Dataset", "MBC-Adv", "MBC*", "Adv-noseed",
                      "MBC*-noseed", "speedup", "Adv-branches",
                      "MDC-branches", "|C*|"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    mbc::Timer timer;
    mbc::ExecutionContext adv_exec;
    mbc::MbcAdvOptions adv_options;
    adv_options.exec = mbc::ConfigureRunContext(&adv_exec, limit * 3);
    (void)mbc::MaxBalancedCliqueAdv(dataset.graph, tau, adv_options);
    const double adv_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext star_exec;
    mbc::MbcStarOptions star_options;
    star_options.exec = mbc::ConfigureRunContext(&star_exec, limit * 6);
    const mbc::MbcStarResult star =
        mbc::MaxBalancedCliqueStar(dataset.graph, tau, star_options);
    const double star_seconds = timer.ElapsedSeconds();
    (void)star_seconds;

    timer.Restart();
    mbc::ExecutionContext adv_noseed_exec;
    adv_options.run_heuristic = false;
    adv_options.exec = mbc::ConfigureRunContext(&adv_noseed_exec, limit * 3);
    const mbc::MbcAdvResult adv_noseed =
        mbc::MaxBalancedCliqueAdv(dataset.graph, tau, adv_options);
    const double adv_noseed_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext star_noseed_exec;
    star_options.run_heuristic = false;
    star_options.exec =
        mbc::ConfigureRunContext(&star_noseed_exec, limit * 6);
    const mbc::MbcStarResult star_noseed =
        mbc::MaxBalancedCliqueStar(dataset.graph, tau, star_options);
    const double star_noseed_seconds = timer.ElapsedSeconds();

    table.AddRow(
        {dataset.spec.name,
         TablePrinter::MarkIf(adv_exec.Interrupted(), '>',
             TablePrinter::FormatSeconds(adv_seconds)),
         TablePrinter::FormatSeconds(star_seconds),
         TablePrinter::MarkIf(adv_noseed_exec.Interrupted(), '>',
             TablePrinter::FormatSeconds(adv_noseed_seconds)),
         TablePrinter::MarkIf(star_noseed_exec.Interrupted(), '>',
             TablePrinter::FormatSeconds(star_noseed_seconds)),
         TablePrinter::FormatDouble(
             star_noseed_seconds > 0
                 ? adv_noseed_seconds / star_noseed_seconds
                 : 0.0,
             1) +
             "x" + (adv_noseed_exec.Interrupted() ? "+" : ""),
         TablePrinter::FormatCount(adv_noseed.branches),
         TablePrinter::FormatCount(star_noseed.stats.mdc_branches),
         std::to_string(star.clique.size())});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(paper shape: MBC* outperforms MBC-Adv by more than one order of\n"
      " magnitude. On the stand-ins the cleanest view is the branch\n"
      " columns — the dichromatic transformation cuts the explored\n"
      " branches by 1-2 orders of magnitude; wall-clock also includes the\n"
      " network-construction work the two variants share)\n");
  return 0;
}
