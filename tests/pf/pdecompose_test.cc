// Copyright 2026 The balanced-clique Authors.
#include "src/pf/pdecompose.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dichromatic/network_builder.h"
#include "src/pf/dcc_solver.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::PeelPinGraphs;
using testing_util::PeelPinRow;
using testing_util::PinGraph;
using testing_util::RandomSignedGraph;

TEST(PDecomposeTest, Figure2PolarCores) {
  const SignedGraph graph = Figure2Graph();
  const PolarDecomposition result = PDecompose(graph);
  // v1, v2 (ids 0, 1): d+ = 1, d- = 2 -> key = min(2, 2) = 2.
  EXPECT_EQ(result.polar_core_number[0], 2u);
  EXPECT_EQ(result.polar_core_number[1], 2u);
  // The 6-vertex kernel {v3..v8}: after removing v1, v2 each vertex has
  // d+ = 2, d- = 3 -> key = min(3, 3) = 3.
  for (VertexId v = 2; v <= 7; ++v) {
    EXPECT_EQ(result.polar_core_number[v], 3u) << v;
  }
  EXPECT_EQ(result.max_polar_core, 3u);
}

TEST(PDecomposeTest, OrderRankConsistent) {
  const SignedGraph graph = RandomSignedGraph(150, 700, 0.4, 5);
  const PolarDecomposition result = PDecompose(graph);
  ASSERT_EQ(result.order.size(), graph.NumVertices());
  for (uint32_t i = 0; i < result.order.size(); ++i) {
    EXPECT_EQ(result.rank[result.order[i]], i);
  }
  // pn is non-decreasing along the order.
  for (uint32_t i = 1; i < result.order.size(); ++i) {
    EXPECT_GE(result.polar_core_number[result.order[i]],
              result.polar_core_number[result.order[i - 1]]);
  }
}

// Cross-check pn against the k-polar-core mask: pn(v) >= k iff v is in the
// k-polar-core.
TEST(PDecomposeTest, AgreesWithPolarCoreMask) {
  const SignedGraph graph = RandomSignedGraph(120, 600, 0.45, 9);
  const PolarDecomposition result = PDecompose(graph);
  for (uint32_t k = 0; k <= result.max_polar_core + 1; ++k) {
    const std::vector<uint8_t> mask = PolarCoreMask(graph, k);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      EXPECT_EQ(mask[v] != 0, result.polar_core_number[v] >= k)
          << "k=" << k << " v=" << v;
    }
  }
}

// Every vertex of the k-polar-core satisfies min{d+ + 1, d-} >= k inside it.
TEST(PolarCoreMaskTest, DefinitionInvariant) {
  const SignedGraph graph = RandomSignedGraph(150, 900, 0.5, 13);
  for (uint32_t k : {1u, 2u, 3u}) {
    const std::vector<uint8_t> mask = PolarCoreMask(graph, k);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (!mask[v]) continue;
      uint32_t pos = 0;
      uint32_t neg = 0;
      for (VertexId u : graph.PositiveNeighbors(v)) pos += mask[u];
      for (VertexId u : graph.NegativeNeighbors(v)) neg += mask[u];
      EXPECT_GE(std::min(pos + 1, neg), k);
    }
  }
}

// Lemma 5: pn(u) >= γ(g_u) for any ordering. We compute γ(g_u) by probing
// DCC with increasing τ on the full-neighborhood network.
TEST(PDecomposeTest, Lemma5PolarCoreNumberBoundsGamma) {
  const SignedGraph graph = RandomSignedGraph(40, 200, 0.45, 21);
  const PolarDecomposition decomposition = PDecompose(graph);
  DichromaticNetworkBuilder builder(graph);
  for (VertexId u = 0; u < graph.NumVertices(); u += 3) {
    const DichromaticNetwork net =
        builder.Build(u, decomposition.rank.data());
    uint32_t gamma = 0;
    DccSolver solver(net.graph);
    Bitset candidates = net.graph.AdjacencyOf(0);
    while (true) {
      // A dichromatic clique with τ = gamma + 1 per side, through u.
      if (!solver.Check(candidates, static_cast<int32_t>(gamma),
                        static_cast<int32_t>(gamma) + 1)) {
        break;
      }
      ++gamma;
    }
    EXPECT_GE(decomposition.polar_core_number[u], gamma) << "u=" << u;
  }
}

// Pins the exact polarization peel (order, rank, pn), which the property
// tests above cannot tell apart from another valid tie-break.
TEST(PDecomposeTest, PinnedPeels) {
  const std::vector<std::string> want = {
      "figure2 order=6c21bf0762ff2ecd rank=6c21bf0762ff2ecd core=f8d0941b8a7ae66d max=3",
      "random order=c229e4a9706750a2 rank=ac479bc78a95979e core=9eb4af5a3079d8cf max=3",
      "dense_core order=c23786a62f26eebd rank=6077ec2a18e66a51 core=fd05558c3de61962 max=34",
      "planted_clique order=1360ca3ddb62b631 rank=f58de3afca61b379 core=38ac0015288854a1 max=79",
      "bscl order=750816a857332b1f rank=348c40e53c7d590f core=22c367237c37dd8c max=4",
  };
  std::vector<std::string> got;
  for (const PinGraph& g : PeelPinGraphs()) {
    const PolarDecomposition r = PDecompose(g.graph);
    got.push_back(PeelPinRow(g.name, r.order, r.rank, r.polar_core_number,
                             r.max_polar_core));
  }
  EXPECT_EQ(got, want);
}

TEST(PDecomposeTest, EmptyGraph) {
  const PolarDecomposition result = PDecompose(SignedGraph());
  EXPECT_TRUE(result.order.empty());
  EXPECT_EQ(result.max_polar_core, 0u);
}

}  // namespace
}  // namespace mbc
