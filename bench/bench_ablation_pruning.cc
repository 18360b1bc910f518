// Copyright 2026 The balanced-clique Authors.
//
// Ablation study (not a paper artifact; DESIGN.md §6 commitment): how much
// of MBC*'s speed comes from each ingredient? Runs MBC* at τ = 3 with
//   full      — everything on (the paper's MBC*),
//   -coloring — coloring-based upper bound disabled (Lemma 2 off),
//   -core     — degree-based k-core pruning disabled (Lemma 1 off),
//   -heu      — no heuristic seed (lower bound starts at 2τ-1),
// all of which remain exact. Expected: each ablation is slower, with the
// heuristic seed mattering most on planted-optimum datasets and the
// coloring bound mattering most where many MDC instances survive.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/core/mbc_star.h"

namespace {

struct Variant {
  const char* name;
  mbc::MbcStarOptions options;
};

}  // namespace

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader("Ablation of MBC*'s prunings (tau = 3)",
                             "(extension; no paper counterpart)");
  const double limit = mbc::BaselineTimeLimitSeconds() * 3;

  Variant variants[4];
  variants[0].name = "full";
  variants[1].name = "-coloring";
  variants[1].options.use_coloring_bound = false;
  variants[2].name = "-core";
  variants[2].options.use_core_pruning = false;
  variants[3].name = "-heu";
  variants[3].options.run_heuristic = false;

  TablePrinter table({"Dataset", "full", "-coloring", "-core", "-heu",
                      "|C*|"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    std::vector<std::string> row{dataset.spec.name};
    size_t full_size = 0;
    bool consistent = true;
    for (const Variant& variant : variants) {
      mbc::Timer timer;
      mbc::ExecutionContext exec;
      mbc::MbcStarOptions options = variant.options;
      options.exec = mbc::ConfigureRunContext(&exec, limit);
      const mbc::MbcStarResult result =
          mbc::MaxBalancedCliqueStar(dataset.graph, 3, options);
      row.push_back(TablePrinter::MarkIf(exec.Interrupted(), '>',
                    TablePrinter::FormatSeconds(timer.ElapsedSeconds())));
      if (variant.options.use_coloring_bound &&
          variant.options.use_core_pruning &&
          variant.options.run_heuristic) {
        full_size = result.clique.size();
      } else if (!exec.Interrupted() &&
                 result.clique.size() != full_size) {
        consistent = false;
      }
    }
    row.push_back(std::to_string(full_size) + (consistent ? "" : "!!"));
    table.AddRow(std::move(row));
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(every variant is exact, so the |C*| column must agree across the\n"
      " non-timed-out runs — '!!' would flag a bug)\n");
  return 0;
}
