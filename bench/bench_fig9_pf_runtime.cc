// Copyright 2026 The balanced-clique Authors.
//
// Figure 9: running time for the polarization factor problem — PF-E
// (enumeration baseline), PF-BS (binary search over MBC*), PF*-DOrder
// (PF* with the degeneracy ordering) and PF* (with the polarization
// ordering). Expected shape: PF* fastest; PF-BS ~one order of magnitude
// slower than PF*; PF-E slower by several orders of magnitude.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_e.h"
#include "src/pf/pf_star.h"

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader(
      "Polarization factor runtime: PF-E / PF-BS / PF*-DOrder / PF*",
      "Figure 9");
  const double limit = mbc::BaselineTimeLimitSeconds();

  TablePrinter table({"Dataset", "PF-E", "PF-BS", "PF*-DOrder", "PF*",
                      "beta"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    mbc::Timer timer;
    mbc::ExecutionContext pfe_exec;
    mbc::PfEOptions pfe_options;
    pfe_options.exec = mbc::ConfigureRunContext(&pfe_exec, limit);
    (void)mbc::PolarizationFactorEnum(dataset.graph, pfe_options);
    const double pfe_seconds = timer.ElapsedSeconds();

    timer.Restart();
    const uint32_t pfbs_beta =
        mbc::PolarizationFactorBinarySearch(dataset.graph).beta;
    const double pfbs_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext dorder_exec;
    mbc::PfStarOptions dorder_options;
    dorder_options.ordering = mbc::PfStarOptions::Ordering::kDegeneracy;
    dorder_options.exec = mbc::ConfigureRunContext(&dorder_exec, limit * 6);
    (void)mbc::PolarizationFactorStar(dataset.graph, dorder_options);
    const double dorder_seconds = timer.ElapsedSeconds();

    timer.Restart();
    mbc::ExecutionContext star_exec;
    mbc::PfStarOptions star_options;
    star_options.exec = mbc::ConfigureRunContext(&star_exec, limit * 6);
    const mbc::PfStarResult star =
        mbc::PolarizationFactorStar(dataset.graph, star_options);
    const double star_seconds = timer.ElapsedSeconds();

    if (!star_exec.Interrupted() && pfbs_beta != star.beta) {
      std::fprintf(stderr, "BUG: PF-BS and PF* disagree on %s (%u vs %u)\n",
                   dataset.spec.name.c_str(), pfbs_beta, star.beta);
      return 1;
    }
    table.AddRow({dataset.spec.name,
                  TablePrinter::MarkIf(pfe_exec.Interrupted(), '>',
                      TablePrinter::FormatSeconds(pfe_seconds)),
                  TablePrinter::FormatSeconds(pfbs_seconds),
                  TablePrinter::MarkIf(dorder_exec.Interrupted(), '>',
                      TablePrinter::FormatSeconds(dorder_seconds)),
                  TablePrinter::MarkIf(star_exec.Interrupted(), '>',
                      TablePrinter::FormatSeconds(star_seconds)),
                  std::to_string(star.beta)});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(paper shape: PF* < PF*-DOrder < PF-BS << PF-E; the polarization\n"
      " ordering beats the degeneracy ordering because it reaches a large\n"
      " lower bound of beta(G) after the first few networks)\n");
  return 0;
}
