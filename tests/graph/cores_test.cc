// Copyright 2026 The balanced-clique Authors.
#include "src/graph/cores.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::FromText;
using testing_util::RandomSignedGraph;

// Triangle + pendant path: degeneracy 2, the pendant vertices have core 1.
SignedGraph TriangleWithTail() {
  return FromText("0 1 1\n1 2 -1\n0 2 1\n2 3 1\n3 4 -1\n");
}

TEST(DegeneracyTest, TriangleWithTail) {
  const DegeneracyResult result = DegeneracyDecompose(TriangleWithTail());
  EXPECT_EQ(result.degeneracy, 2u);
  EXPECT_EQ(result.core_number[0], 2u);
  EXPECT_EQ(result.core_number[1], 2u);
  EXPECT_EQ(result.core_number[2], 2u);
  EXPECT_EQ(result.core_number[3], 1u);
  EXPECT_EQ(result.core_number[4], 1u);
}

TEST(DegeneracyTest, OrderAndRankAreConsistent) {
  const SignedGraph graph = RandomSignedGraph(200, 800, 0.3, 7);
  const DegeneracyResult result = DegeneracyDecompose(graph);
  ASSERT_EQ(result.order.size(), graph.NumVertices());
  for (uint32_t i = 0; i < result.order.size(); ++i) {
    EXPECT_EQ(result.rank[result.order[i]], i);
  }
  // Order is a permutation.
  std::vector<VertexId> sorted = result.order;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) EXPECT_EQ(sorted[v], v);
}

// Defining property of the degeneracy ordering: every vertex has at most
// `degeneracy` higher-ranked neighbors.
TEST(DegeneracyTest, HigherRankedNeighborsBounded) {
  const SignedGraph graph = RandomSignedGraph(300, 1500, 0.25, 11);
  const DegeneracyResult result = DegeneracyDecompose(graph);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    uint32_t higher = 0;
    for (VertexId u : graph.PositiveNeighbors(v)) {
      higher += result.rank[u] > result.rank[v];
    }
    for (VertexId u : graph.NegativeNeighbors(v)) {
      higher += result.rank[u] > result.rank[v];
    }
    EXPECT_LE(higher, result.degeneracy);
  }
}

TEST(DegeneracyTest, CompleteGraph) {
  std::string text;
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      text += std::to_string(u) + " " + std::to_string(v) + " 1\n";
    }
  }
  const DegeneracyResult result = DegeneracyDecompose(FromText(text));
  EXPECT_EQ(result.degeneracy, 5u);
}

TEST(DegeneracyTest, EmptyGraph) {
  const DegeneracyResult result =
      DegeneracyDecompose(SignedGraph());
  EXPECT_EQ(result.degeneracy, 0u);
  EXPECT_TRUE(result.order.empty());
}

TEST(KCoreTest, TriangleWithTail) {
  const SignedGraph graph = TriangleWithTail();
  const std::vector<uint8_t> core2 = KCoreMask(graph, 2);
  EXPECT_EQ(core2, (std::vector<uint8_t>{1, 1, 1, 0, 0}));
  const std::vector<uint8_t> core1 = KCoreMask(graph, 1);
  EXPECT_EQ(core1, (std::vector<uint8_t>{1, 1, 1, 1, 1}));
  const std::vector<uint8_t> core3 = KCoreMask(graph, 3);
  EXPECT_EQ(std::count(core3.begin(), core3.end(), 1), 0);
}

TEST(KCoreTest, CascadingRemoval) {
  // A path: 1-core keeps everything, 2-core empties it (cascade).
  const SignedGraph graph = FromText("0 1 1\n1 2 1\n2 3 1\n3 4 1\n");
  const std::vector<uint8_t> core2 = KCoreMask(graph, 2);
  EXPECT_EQ(std::count(core2.begin(), core2.end(), 1), 0);
}

// Cross-check: v is in the k-core iff core_number[v] >= k.
TEST(KCoreTest, AgreesWithCoreNumbers) {
  const SignedGraph graph = RandomSignedGraph(200, 900, 0.3, 17);
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  for (uint32_t k = 0; k <= degeneracy.degeneracy + 1; ++k) {
    const std::vector<uint8_t> mask = KCoreMask(graph, k);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      EXPECT_EQ(mask[v] != 0, degeneracy.core_number[v] >= k)
          << "k=" << k << " v=" << v;
    }
  }
}

// Every vertex in the k-core has >= k neighbors inside the core.
TEST(KCoreTest, MinDegreeInvariant) {
  const SignedGraph graph = RandomSignedGraph(250, 1200, 0.35, 23);
  for (uint32_t k : {2u, 3u, 5u}) {
    const std::vector<uint8_t> mask = KCoreMask(graph, k);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (!mask[v]) continue;
      uint32_t inside = 0;
      for (VertexId u : graph.PositiveNeighbors(v)) inside += mask[u];
      for (VertexId u : graph.NegativeNeighbors(v)) inside += mask[u];
      EXPECT_GE(inside, k);
    }
  }
}

}  // namespace
}  // namespace mbc
