// Copyright 2026 The balanced-clique Authors.
//
// Figure 12: scalability of PF-E, PF-BS and PF* on DBLP and Douban —
// vertex samples from 20% to 100%. Expected shape: all rise with sample
// size; PF* dominates at every point.
#include <cstdio>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/env.h"
#include "src/common/timer.h"
#include "src/graph/sampling.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_e.h"
#include "src/pf/pf_star.h"

int main() {
  using mbc::TablePrinter;
  mbc::PrintExperimentHeader(
      "Scalability of PF-E / PF-BS / PF* (vertex samples)", "Figure 12");
  if (mbc::GetEnvString("MBC_DATASETS", "").empty()) {
    setenv("MBC_DATASETS", "DBLP,Douban", 0);
  }
  const double limit = mbc::BaselineTimeLimitSeconds();

  TablePrinter table(
      {"Dataset", "sample", "n", "PF-E", "PF-BS", "PF*", "beta"});
  for (const mbc::ExperimentDataset& dataset :
       mbc::LoadExperimentDatasets()) {
    for (int percent = 20; percent <= 100; percent += 20) {
      const mbc::SignedGraph sample = mbc::SampleVertexInducedSubgraph(
          dataset.graph, percent / 100.0, /*seed=*/4321 + percent);

      mbc::Timer timer;
      mbc::ExecutionContext pfe_exec;
      mbc::PfEOptions pfe_options;
      pfe_options.exec = mbc::ConfigureRunContext(&pfe_exec, limit);
      (void)mbc::PolarizationFactorEnum(sample, pfe_options);
      const double pfe_seconds = timer.ElapsedSeconds();

      timer.Restart();
      const mbc::PfBsResult pfbs = mbc::PolarizationFactorBinarySearch(sample);
      const double pfbs_seconds = timer.ElapsedSeconds();
      (void)pfbs;

      timer.Restart();
      mbc::ExecutionContext star_exec;
      mbc::PfStarOptions star_options;
      star_options.exec = mbc::ConfigureRunContext(&star_exec, limit * 6);
      const mbc::PfStarResult star =
          mbc::PolarizationFactorStar(sample, star_options);
      const double star_seconds = timer.ElapsedSeconds();

      table.AddRow({dataset.spec.name, std::to_string(percent) + "%",
                    TablePrinter::FormatCount(sample.NumVertices()),
                    TablePrinter::MarkIf(pfe_exec.Interrupted(), '>',
                        TablePrinter::FormatSeconds(pfe_seconds)),
                    TablePrinter::FormatSeconds(pfbs_seconds),
                    TablePrinter::MarkIf(star_exec.Interrupted(), '>',
                        TablePrinter::FormatSeconds(star_seconds)),
                    std::to_string(star.beta)});
    }
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "(paper shape: processing time rises with the sample for all three;\n"
      " PF* fastest at every point and scales best)\n");
  return 0;
}
