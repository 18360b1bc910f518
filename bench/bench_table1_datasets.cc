// Copyright 2026 The balanced-clique Authors.
//
// Table I: statistics of the datasets — |V|, |E|, |E-|/|E|, |C*| (the
// maximum balanced clique size at τ = 3) and β(G). Paper-reported values
// are printed next to the measured ones; with the synthetic stand-ins,
// |C*| and β are ground truth planted into the graphs, so they should
// match the paper exactly except where the organic background happens to
// exceed a small planted optimum.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/core/mbc_star.h"
#include "src/core/verify.h"
#include "src/pf/pf_star.h"

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader("Dataset statistics", "Table I");
  const double budget = mbc::BaselineTimeLimitSeconds() * 6;

  TablePrinter table({"Dataset", "|V|", "|E|", "|E-|/|E|", "|C*|",
                      "paper|C*|", "beta", "paper-beta", "time"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    mbc::Timer timer;
    mbc::ExecutionContext mbc_exec;
    mbc::MbcStarOptions options;
    options.exec = mbc::ConfigureRunContext(&mbc_exec, budget);
    const mbc::MbcStarResult mbc_result =
        mbc::MaxBalancedCliqueStar(dataset.graph, 3, options);
    mbc::ExecutionContext pf_exec;
    mbc::PfStarOptions pf_options;
    pf_options.exec = mbc::ConfigureRunContext(&pf_exec, budget);
    const mbc::PfStarResult pf =
        mbc::PolarizationFactorStar(dataset.graph, pf_options);
    if (!mbc::IsBalancedClique(dataset.graph, mbc_result.clique)) {
      std::fprintf(stderr, "BUG: invalid clique on %s\n",
                   dataset.spec.name.c_str());
      return 1;
    }
    table.AddRow({dataset.spec.name,
                  TablePrinter::FormatCount(dataset.graph.NumVertices()),
                  TablePrinter::FormatCount(dataset.graph.NumEdges()),
                  TablePrinter::FormatDouble(
                      dataset.graph.NegativeEdgeRatio(), 2),
                  std::to_string(mbc_result.clique.size()) +
                      (mbc_exec.Interrupted() ? "*" : ""),
                  std::to_string(dataset.spec.paper_cstar_tau3),
                  std::to_string(pf.beta) + (pf_exec.Interrupted() ? "*" : ""),
                  std::to_string(dataset.spec.paper_beta),
                  TablePrinter::FormatSeconds(timer.ElapsedSeconds())});
  }
  std::printf("\n");
  table.Print();
  std::printf("(* = safety time budget hit; value is a lower bound)\n");
  return 0;
}
