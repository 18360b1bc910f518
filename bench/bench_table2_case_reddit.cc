// Copyright 2026 The balanced-clique Authors.
//
// Table II: the Reddit case study. Two parts:
//   1. A labeled miniature subreddit sentiment graph whose maximum
//      balanced clique reproduces the paper's conflict table (content
//      subreddits vs drama subreddits).
//   2. On the Reddit stand-in, contrast MBC* with the enumeration of all
//      maximal balanced cliques (MBCEnum [13]) at τ = β(G): the paper
//      reports 197 heavily-overlapping cliques and a ~50x speed gap.
#include <cstdio>
#include <map>
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

const std::vector<std::string> kSubreddits = {
    "videos", "gaming", "mma", "thepopcornstand", "canada",
    "subredditdrama", "trueredditdrama", "drama",
    "aww", "programming", "worldnews"};

mbc::SignedGraph BuildLabeledGraph() {
  using mbc::Sign;
  mbc::SignedGraphBuilder builder(
      static_cast<mbc::VertexId>(kSubreddits.size()));
  for (mbc::VertexId a = 0; a <= 4; ++a) {
    for (mbc::VertexId b = a + 1; b <= 4; ++b) {
      builder.AddEdge(a, b, Sign::kPositive);
    }
  }
  for (mbc::VertexId a = 5; a <= 7; ++a) {
    for (mbc::VertexId b = a + 1; b <= 7; ++b) {
      builder.AddEdge(a, b, Sign::kPositive);
    }
  }
  for (mbc::VertexId a = 0; a <= 4; ++a) {
    for (mbc::VertexId b = 5; b <= 7; ++b) {
      builder.AddEdge(a, b, Sign::kNegative);
    }
  }
  builder.AddEdge(8, 0, Sign::kPositive);
  builder.AddEdge(9, 1, Sign::kPositive);
  builder.AddEdge(9, 5, Sign::kNegative);
  builder.AddEdge(10, 4, Sign::kPositive);
  builder.AddEdge(10, 7, Sign::kNegative);
  return std::move(builder).Build();
}

}  // namespace

int main() {
  mbc::PrintExperimentHeader("Case study: conflict discovery on Reddit",
                             "Table II");

  // Part 1: the labeled miniature (paper's C_L = content subreddits,
  // C_R = drama subreddits).
  const mbc::SignedGraph labeled = BuildLabeledGraph();
  const mbc::PfStarResult pf = mbc::PolarizationFactorStar(labeled);
  const mbc::MbcStarResult best =
      mbc::MaxBalancedCliqueStar(labeled, pf.beta);
  std::printf("\nlabeled miniature (tau = beta = %u):\n", pf.beta);
  std::printf("  C_L:");
  for (mbc::VertexId v : best.clique.left) {
    std::printf(" %s", kSubreddits[v].c_str());
  }
  std::printf("\n  C_R:");
  for (mbc::VertexId v : best.clique.right) {
    std::printf(" %s", kSubreddits[v].c_str());
  }
  std::printf("\n");

  // Part 2: MBC* vs MBCEnum on the Reddit stand-in.
  const mbc::DatasetSpec spec =
      mbc::FindDatasetSpec("Reddit").ValueOrDie();
  const mbc::SignedGraph graph =
      mbc::GenerateDataset(spec, mbc::DatasetScaleFromEnv());
  std::printf("\nReddit stand-in: n=%u m=%llu\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  mbc::Timer star_timer;
  const mbc::MbcStarResult star =
      mbc::MaxBalancedCliqueStar(graph, spec.paper_beta);
  const double star_seconds = star_timer.ElapsedSeconds();

  std::map<size_t, uint64_t> size_histogram;
  mbc::ExecutionContext enum_exec;
  mbc::MbcEnumOptions enum_options;
  enum_options.exec = mbc::ConfigureRunContext(
      &enum_exec, mbc::BaselineTimeLimitSeconds() * 6);
  mbc::Timer enum_timer;
  const mbc::MbcEnumStats enum_stats = mbc::EnumerateMaximalBalancedCliques(
      graph, spec.paper_beta,
      [&size_histogram](const mbc::BalancedClique& clique) {
        ++size_histogram[clique.size()];
      },
      enum_options);
  const double enum_seconds = enum_timer.ElapsedSeconds();

  std::printf("  MBC* maximum clique: size %zu in %s\n", star.clique.size(),
              mbc::TablePrinter::FormatSeconds(star_seconds).c_str());
  std::printf("  MBCEnum: %llu maximal cliques%s in %s (%.0fx slower)\n",
              static_cast<unsigned long long>(enum_stats.num_reported),
              enum_stats.truncated ? " (truncated)" : "",
              mbc::TablePrinter::FormatSeconds(enum_seconds).c_str(),
              star_seconds > 0 ? enum_seconds / star_seconds : 0.0);
  std::printf("  size histogram:");
  for (const auto& [size, count] : size_histogram) {
    std::printf(" %zu:%llu", size, static_cast<unsigned long long>(count));
  }
  std::printf(
      "\n(paper shape: enumeration reports hundreds of heavily-overlapping\n"
      " cliques and is ~50x slower than MBC* on Reddit)\n");
  return 0;
}
