// Copyright 2026 The balanced-clique Authors.
//
// Table III: the AdjWordNet case study. The paper's maximum balanced
// clique at τ = β(G) = 28 has 60 words with |C_L| = 28 and |C_R| = 32
// (good-words vs bad-words), and MBCEnum finds exactly one maximal clique
// at that threshold while running ~200x slower. The AdjWordNet stand-in
// plants the same (28, 32) structure; we verify MBC* recovers it, that
// enumeration at τ = β agrees, and we reproduce the flavor of the word
// table on a labeled miniature.
#include <cstdio>
#include <string>
#include <vector>

#include "src/benchlib/experiment.h"
#include "src/benchlib/table.h"
#include "src/common/timer.h"
#include "src/core/mbc_enum.h"
#include "src/core/mbc_star.h"
#include "src/datasets/registry.h"
#include "src/graph/signed_graph_builder.h"
#include "src/pf/pf_star.h"

namespace {

const std::vector<std::string> kWords = {
    "good", "great", "excellent", "wonderful", "superb",
    "bad", "terrible", "awful", "horrible", "dreadful",
    "fast", "slow"};

mbc::SignedGraph BuildLabeledGraph() {
  using mbc::Sign;
  mbc::SignedGraphBuilder builder(
      static_cast<mbc::VertexId>(kWords.size()));
  for (mbc::VertexId a = 0; a <= 4; ++a) {
    for (mbc::VertexId b = a + 1; b <= 4; ++b) {
      builder.AddEdge(a, b, Sign::kPositive);
    }
  }
  for (mbc::VertexId a = 5; a <= 9; ++a) {
    for (mbc::VertexId b = a + 1; b <= 9; ++b) {
      builder.AddEdge(a, b, Sign::kPositive);
    }
  }
  for (mbc::VertexId a = 0; a <= 4; ++a) {
    for (mbc::VertexId b = 5; b <= 9; ++b) {
      builder.AddEdge(a, b, Sign::kNegative);
    }
  }
  builder.AddEdge(10, 11, Sign::kNegative);
  return std::move(builder).Build();
}

}  // namespace

int main() {
  mbc::PrintExperimentHeader(
      "Case study: synonym/antonym groups on AdjWordNet", "Table III");

  const mbc::SignedGraph labeled = BuildLabeledGraph();
  const mbc::PfStarResult labeled_pf = mbc::PolarizationFactorStar(labeled);
  const mbc::MbcStarResult labeled_best =
      mbc::MaxBalancedCliqueStar(labeled, labeled_pf.beta);
  std::printf("\nlabeled miniature (tau = beta = %u):\n", labeled_pf.beta);
  std::printf("  C_L:");
  for (mbc::VertexId v : labeled_best.clique.left) {
    std::printf(" %s", kWords[v].c_str());
  }
  std::printf("\n  C_R:");
  for (mbc::VertexId v : labeled_best.clique.right) {
    std::printf(" %s", kWords[v].c_str());
  }
  std::printf("\n");

  const mbc::DatasetSpec spec =
      mbc::FindDatasetSpec("AdjWordNet").ValueOrDie();
  const mbc::SignedGraph graph =
      mbc::GenerateDataset(spec, mbc::DatasetScaleFromEnv());
  std::printf("\nAdjWordNet stand-in: n=%u m=%llu\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  mbc::Timer star_timer;
  const mbc::MbcStarResult star =
      mbc::MaxBalancedCliqueStar(graph, spec.paper_beta);
  const double star_seconds = star_timer.ElapsedSeconds();
  std::printf("  MBC* at tau=%u: size %zu with |C_L|=%zu |C_R|=%zu in %s\n",
              spec.paper_beta, star.clique.size(), star.clique.left.size(),
              star.clique.right.size(),
              mbc::TablePrinter::FormatSeconds(star_seconds).c_str());

  uint64_t count = 0;
  size_t largest = 0;
  mbc::ExecutionContext enum_exec;
  mbc::MbcEnumOptions enum_options;
  enum_options.exec = mbc::ConfigureRunContext(
      &enum_exec, mbc::BaselineTimeLimitSeconds() * 6);
  mbc::Timer enum_timer;
  const mbc::MbcEnumStats enum_stats = mbc::EnumerateMaximalBalancedCliques(
      graph, spec.paper_beta,
      [&count, &largest](const mbc::BalancedClique& clique) {
        ++count;
        largest = std::max(largest, clique.size());
      },
      enum_options);
  const double enum_seconds = enum_timer.ElapsedSeconds();
  std::printf("  MBCEnum at tau=%u: %llu maximal clique(s)%s, largest %zu, "
              "in %s (%.0fx slower)\n",
              spec.paper_beta,
              static_cast<unsigned long long>(enum_stats.num_reported),
              enum_stats.truncated ? " (truncated)" : "", largest,
              mbc::TablePrinter::FormatSeconds(enum_seconds).c_str(),
              star_seconds > 0 ? enum_seconds / star_seconds : 0.0);
  std::printf(
      "(paper shape: exactly one maximal clique at tau=beta=28, identical\n"
      " to the MBC* answer (60 words, 28|32); MBC* ~200x faster)\n");
  return 0;
}
