// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_heu.h"

#include <gtest/gtest.h>

#include "src/common/memory.h"
#include "src/common/random.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::RandomSignedGraph;

TEST(MbcHeuTest, AlwaysReturnsValidBalancedClique) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SignedGraph graph = RandomSignedGraph(120, 700, 0.4, seed);
    const BalancedClique clique = MbcHeuristic(graph, 0);
    EXPECT_TRUE(IsBalancedClique(graph, clique)) << "seed=" << seed;
    EXPECT_FALSE(clique.empty());
  }
}

TEST(MbcHeuTest, RespectsThreshold) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SignedGraph graph = RandomSignedGraph(120, 700, 0.4, seed);
    for (uint32_t tau : {1u, 2u, 3u}) {
      const BalancedClique clique = MbcHeuristic(graph, tau);
      if (!clique.empty()) {
        EXPECT_TRUE(clique.SatisfiesThreshold(tau));
        EXPECT_TRUE(IsBalancedClique(graph, clique));
      }
    }
  }
}

TEST(MbcHeuTest, FindsPaperExampleOptimum) {
  // On the Figure 2 graph the greedy anchored at v3/v4 (max min-degree)
  // grows the optimal 6-clique.
  const SignedGraph graph = Figure2Graph();
  const BalancedClique clique = MbcHeuristic(graph, 2);
  EXPECT_TRUE(IsBalancedClique(graph, clique));
  EXPECT_EQ(clique.size(), 6u);
}

TEST(MbcHeuTest, ReturnsEmptyWhenThresholdUnreachable) {
  const SignedGraph graph =
      testing_util::FromText("0 1 1\n1 2 1\n0 2 1\n");  // all positive
  const BalancedClique clique = MbcHeuristic(graph, 1);
  EXPECT_TRUE(clique.empty());
}

TEST(MbcHeuTest, RecoversLargePlantedClique) {
  // Uniform degrees so the planted members dominate min{d+, d-}.
  CommunityGraphOptions options;
  options.num_vertices = 3000;
  options.num_edges = 15000;
  options.negative_ratio = 0.3;
  options.powerlaw_alpha = 0.0;
  options.seed = 5;
  const SignedGraph base = GenerateCommunitySignedGraph(options);
  std::vector<PlantedCliqueMembers> members;
  const SignedGraph graph =
      PlantBalancedCliques(base, {{20, 25}}, 77, &members);
  const BalancedClique clique = MbcHeuristic(graph, 3);
  EXPECT_TRUE(IsBalancedClique(graph, clique));
  // The planted clique dominates min{d+, d-}, so the heuristic anchors
  // inside it and recovers a large chunk.
  EXPECT_GE(clique.size(), 40u);
}

TEST(MbcHeuTest, SingleVertexGraph) {
  SignedGraphBuilder builder(1);
  const SignedGraph graph = std::move(builder).Build();
  const BalancedClique clique = MbcHeuristic(graph, 0);
  EXPECT_EQ(clique.size(), 1u);
}

// MbcHeuristic builds each anchor's dense network over the first pick's
// neighbourhood only. The hub anchor here has k = 20,001 members, whose
// whole g_a would take three k×k bit matrices (about 150 MB); the first
// pick's neighbourhood in the sparse periphery takes a few kilobytes.
TEST(MbcHeuTest, HubAnchorNetworkStaysSmall) {
  constexpr VertexId kPeriphery = 20000;
  SignedGraphBuilder builder(kPeriphery + 1);
  for (VertexId v = 1; v <= kPeriphery; ++v) {
    builder.AddEdge(0, v, v % 2 == 0 ? Sign::kPositive : Sign::kNegative);
  }
  Rng rng(23);
  for (int e = 0; e < 2 * static_cast<int>(kPeriphery); ++e) {
    const VertexId u = 1 + static_cast<VertexId>(rng.NextBounded(kPeriphery));
    const VertexId v = 1 + static_cast<VertexId>(rng.NextBounded(kPeriphery));
    if (u == v) continue;
    builder.AddEdge(u, v, (u + v) % 3 == 0 ? Sign::kNegative
                                           : Sign::kPositive);
  }
  const SignedGraph graph = std::move(builder).Build();

  const uint64_t before = PeakRssBytes();
  if (before == 0) GTEST_SKIP() << "VmHWM is not readable on this system";
  const BalancedClique clique = MbcHeuristic(graph, 1);
  const uint64_t after = PeakRssBytes();
  EXPECT_TRUE(IsBalancedClique(graph, clique));
  EXPECT_FALSE(clique.empty());
  EXPECT_LT(after - before, uint64_t{32} << 20)
      << "peak RSS rose from " << (before >> 20) << " to " << (after >> 20)
      << " MB";
}

}  // namespace
}  // namespace mbc
