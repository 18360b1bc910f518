// Copyright 2026 The balanced-clique Authors.
#include "src/core/reductions.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/graph/signed_graph_builder.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::FromText;
using testing_util::RandomSignedGraph;

TEST(VertexReductionTest, TauZeroKeepsEverything) {
  const SignedGraph graph = Figure2Graph();
  const std::vector<uint8_t> alive = VertexReductionMask(graph, 0);
  EXPECT_EQ(std::count(alive.begin(), alive.end(), 1),
            static_cast<long>(graph.NumVertices()));
}

TEST(VertexReductionTest, DegreeThresholds) {
  // Vertex 0: d+=1, d-=1. τ=1 requires d+ >= 0, d- >= 1 -> survives.
  // τ=2 requires d+ >= 1 and d- >= 2 -> 0 has d-=1, removed.
  const SignedGraph graph = FromText("0 1 1\n0 2 -1\n1 2 -1\n1 3 1\n2 3 1\n");
  const std::vector<uint8_t> tau1 = VertexReductionMask(graph, 1);
  EXPECT_TRUE(tau1[0]);
  const std::vector<uint8_t> tau2 = VertexReductionMask(graph, 2);
  EXPECT_FALSE(tau2[0]);
}

TEST(VertexReductionTest, CascadingRemoval) {
  // Chain where removing the endpoint cascades down.
  const SignedGraph graph = Figure2Graph();
  // τ=3: every vertex needs d+ >= 2 and d- >= 3.
  const std::vector<uint8_t> alive = VertexReductionMask(graph, 3);
  // v1, v2 (ids 0, 1) have d+ = 1 -> removed. Their removal lowers the
  // negative degree of v3, v4 to 3 (from 5); the core {2..7} survives.
  EXPECT_FALSE(alive[0]);
  EXPECT_FALSE(alive[1]);
  for (VertexId v = 2; v <= 7; ++v) EXPECT_TRUE(alive[v]) << v;
}

TEST(VertexReductionTest, PreservesQualifyingCliques) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const SignedGraph graph = RandomSignedGraph(18, 70, 0.45, seed);
    for (uint32_t tau : {1u, 2u}) {
      const BalancedClique best = BruteForceMaxBalancedClique(graph, tau);
      if (best.empty()) continue;
      const std::vector<uint8_t> alive = VertexReductionMask(graph, tau);
      for (VertexId v : best.AllVertices()) {
        EXPECT_TRUE(alive[v]) << "seed=" << seed << " tau=" << tau;
      }
    }
  }
}

// Reference fixpoint: recount every live vertex's degrees against the live
// set and drop every violator at once, until a round drops nothing.
std::vector<uint8_t> NaiveVertexReduction(const SignedGraph& graph,
                                          uint32_t tau) {
  const VertexId n = graph.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  if (tau == 0) return alive;
  for (bool changed = true; changed;) {
    changed = false;
    std::vector<uint8_t> next = alive;
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      uint32_t pos = 0;
      uint32_t neg = 0;
      for (VertexId u : graph.PositiveNeighbors(v)) pos += alive[u];
      for (VertexId u : graph.NegativeNeighbors(v)) neg += alive[u];
      if (pos < tau - 1 || neg < tau) {
        next[v] = 0;
        changed = true;
      }
    }
    alive = std::move(next);
  }
  return alive;
}

// Two sides of `half` vertices each, positive inside a side, negative
// across: every vertex has d+ = half-1 and d- = half, so all of them
// survive every τ <= half and none survives τ = half+1.
SignedGraph CompleteBalancedGraph(VertexId half) {
  SignedGraphBuilder builder(2 * half);
  for (VertexId a = 0; a < 2 * half; ++a) {
    for (VertexId b = a + 1; b < 2 * half; ++b) {
      builder.AddEdge(a, b, (a < half) == (b < half) ? Sign::kPositive
                                                      : Sign::kNegative);
    }
  }
  return std::move(builder).Build();
}

TEST(VertexReductionTest, MatchesNaiveRecountUntilStable) {
  std::vector<std::pair<std::string, SignedGraph>> graphs;
  graphs.emplace_back("figure2", Figure2Graph());
  for (uint64_t seed : {3u, 11u}) {
    graphs.emplace_back("random" + std::to_string(seed),
                        RandomSignedGraph(400, 4000, 0.45, seed));
  }
  CommunityGraphOptions community;
  community.num_vertices = 600;
  community.num_edges = 15000;
  community.num_communities = 4;
  community.negative_ratio = 0.4;
  community.seed = 202;
  graphs.emplace_back("community", GenerateCommunitySignedGraph(community));
  BsclOptions bscl;
  bscl.num_vertices = 20000;
  bscl.num_edges = 100000;
  bscl.seed = 7;
  graphs.emplace_back("bscl", GenerateBsclSignedGraph(bscl));
  graphs.emplace_back("complete5", CompleteBalancedGraph(5));
  graphs.emplace_back("complete6", CompleteBalancedGraph(6));

  for (const auto& [name, graph] : graphs) {
    for (uint32_t tau = 0; tau <= 6; ++tau) {
      EXPECT_EQ(VertexReductionMask(graph, tau),
                NaiveVertexReduction(graph, tau))
          << name << " tau=" << tau;
    }
  }
  // The edge cases at τ = 6: every vertex of complete6 survives, no
  // vertex of complete5 does.
  const std::vector<uint8_t> all = VertexReductionMask(graphs.back().second, 6);
  EXPECT_EQ(std::count(all.begin(), all.end(), 1), 12);
  const std::vector<uint8_t> none =
      VertexReductionMask(graphs[graphs.size() - 2].second, 6);
  EXPECT_EQ(std::count(none.begin(), none.end(), 1), 0);
}

TEST(ApplyVertexReductionTest, MappingIsConsistent) {
  const SignedGraph graph = Figure2Graph();
  const ReducedSignedGraph reduced = ApplyVertexReduction(graph, 3);
  EXPECT_EQ(reduced.graph.NumVertices(), 6u);
  // Every edge of the reduced graph exists with the same sign in G.
  reduced.graph.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
    EXPECT_EQ(graph.EdgeSign(reduced.to_original[u], reduced.to_original[v]),
              sign);
  });
}

TEST(EdgeReductionTest, TauBelowTwoIsIdentity) {
  const SignedGraph graph = Figure2Graph();
  const SignedGraph reduced = EdgeReduction(graph, 1);
  EXPECT_EQ(reduced.NumEdges(), graph.NumEdges());
}

TEST(EdgeReductionTest, RemovesTriangleDeficientEdges) {
  // A single positive edge with no triangles cannot be in any τ=2 clique.
  const SignedGraph graph = FromText("0 1 1\n2 3 -1\n");
  const SignedGraph reduced = EdgeReduction(graph, 2);
  EXPECT_EQ(reduced.NumEdges(), 0u);
}

TEST(EdgeReductionTest, KeepsPerfectBalancedClique) {
  // Balanced clique with sides (2,2): every edge meets the τ=2 triangle
  // conditions exactly.
  const SignedGraph graph = FromText(
      "0 1 1\n2 3 1\n0 2 -1\n0 3 -1\n1 2 -1\n1 3 -1\n");
  const SignedGraph reduced = EdgeReduction(graph, 2);
  EXPECT_EQ(reduced.NumEdges(), 6u);
}

TEST(EdgeReductionTest, FixpointCascades) {
  // Balanced (2,2) clique plus a pendant positive edge 0-4 supported by
  // no triangles: removing it must not disturb the clique.
  const SignedGraph graph = FromText(
      "0 1 1\n2 3 1\n0 2 -1\n0 3 -1\n1 2 -1\n1 3 -1\n0 4 1\n");
  const SignedGraph reduced = EdgeReduction(graph, 2);
  EXPECT_EQ(reduced.NumEdges(), 6u);
  EXPECT_EQ(reduced.EdgeSign(0, 4), std::nullopt);
}

TEST(EdgeReductionTest, PreservesQualifyingCliquesRandomized) {
  for (uint64_t seed = 11; seed <= 15; ++seed) {
    const SignedGraph graph = RandomSignedGraph(16, 60, 0.45, seed);
    for (uint32_t tau : {2u, 3u}) {
      const BalancedClique best = BruteForceMaxBalancedClique(graph, tau);
      if (best.empty()) continue;
      const SignedGraph reduced = EdgeReduction(graph, tau);
      EXPECT_TRUE(IsBalancedClique(reduced, best))
          << "seed=" << seed << " tau=" << tau;
    }
  }
}

}  // namespace
}  // namespace mbc
