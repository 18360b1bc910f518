// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_heu.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace mbc
