// Copyright 2026 The balanced-clique Authors.
#include "src/graph/signed_graph.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/datasets/generators.h"
#include "src/graph/binary_io.h"
#include "src/graph/signed_graph_builder.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::FromText;

TEST(SignedGraphTest, EmptyGraph) {
  SignedGraph graph = SignedGraphBuilder(0).Build();
  EXPECT_EQ(graph.NumVertices(), 0u);
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(graph.NegativeEdgeRatio(), 0.0);
}

TEST(SignedGraphTest, BasicAccessors) {
  SignedGraph graph = FromText("0 1 1\n0 2 -1\n1 2 -1\n2 3 1\n");
  EXPECT_EQ(graph.NumVertices(), 4u);
  EXPECT_EQ(graph.NumEdges(), 4u);
  EXPECT_EQ(graph.NumPositiveEdges(), 2u);
  EXPECT_EQ(graph.NumNegativeEdges(), 2u);
  EXPECT_DOUBLE_EQ(graph.NegativeEdgeRatio(), 0.5);

  EXPECT_EQ(graph.PositiveDegree(0), 1u);
  EXPECT_EQ(graph.NegativeDegree(0), 1u);
  EXPECT_EQ(graph.Degree(0), 2u);
  EXPECT_EQ(graph.Degree(2), 3u);
  EXPECT_EQ(graph.Degree(3), 1u);
}

TEST(SignedGraphTest, AdjacencyIsSortedAndSymmetric) {
  SignedGraph graph = FromText("3 1 1\n3 0 1\n3 2 -1\n1 0 -1\n");
  const auto pos3 = graph.PositiveNeighbors(3);
  ASSERT_EQ(pos3.size(), 2u);
  EXPECT_EQ(pos3[0], 0u);
  EXPECT_EQ(pos3[1], 1u);
  // Symmetry.
  EXPECT_EQ(graph.PositiveNeighbors(0).size(), 1u);
  EXPECT_EQ(graph.PositiveNeighbors(0)[0], 3u);
  EXPECT_EQ(graph.NegativeNeighbors(2).size(), 1u);
  EXPECT_EQ(graph.NegativeNeighbors(2)[0], 3u);
}

TEST(SignedGraphTest, EdgeQueries) {
  SignedGraph graph = FromText("0 1 1\n1 2 -1\n");
  EXPECT_TRUE(graph.HasPositiveEdge(0, 1));
  EXPECT_TRUE(graph.HasPositiveEdge(1, 0));
  EXPECT_FALSE(graph.HasNegativeEdge(0, 1));
  EXPECT_TRUE(graph.HasNegativeEdge(2, 1));
  EXPECT_FALSE(graph.HasPositiveEdge(0, 2));
  EXPECT_EQ(graph.EdgeSign(0, 1), Sign::kPositive);
  EXPECT_EQ(graph.EdgeSign(1, 2), Sign::kNegative);
  EXPECT_EQ(graph.EdgeSign(0, 2), std::nullopt);
}

TEST(SignedGraphTest, ForEachEdgeVisitsOncePerEdge) {
  SignedGraph graph = FromText("0 1 1\n1 2 -1\n0 2 1\n2 3 -1\n");
  int positive = 0;
  int negative = 0;
  graph.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
    EXPECT_LT(u, v);
    (sign == Sign::kPositive ? positive : negative) += 1;
  });
  EXPECT_EQ(positive, 2);
  EXPECT_EQ(negative, 2);
}

TEST(SignedGraphTest, BuilderDeduplicatesSameSign) {
  SignedGraphBuilder builder;
  builder.AddEdge(0, 1, Sign::kPositive);
  builder.AddEdge(1, 0, Sign::kPositive);
  builder.AddEdge(0, 1, Sign::kPositive);
  SignedGraph graph = std::move(builder).Build();
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_EQ(graph.PositiveDegree(0), 1u);
}

TEST(SignedGraphTest, BuilderConflictPolicyKeepNegative) {
  SignedGraphBuilder builder;
  builder.set_sign_conflict_policy(
      SignedGraphBuilder::SignConflictPolicy::kKeepNegative);
  builder.AddEdge(0, 1, Sign::kPositive);
  builder.AddEdge(0, 1, Sign::kNegative);
  SignedGraph graph = std::move(builder).Build();
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_TRUE(graph.HasNegativeEdge(0, 1));
  EXPECT_FALSE(graph.HasPositiveEdge(0, 1));
}

TEST(SignedGraphTest, BuilderConflictPolicyDropEdge) {
  SignedGraphBuilder builder;
  builder.set_sign_conflict_policy(
      SignedGraphBuilder::SignConflictPolicy::kDropEdge);
  builder.AddEdge(0, 1, Sign::kPositive);
  builder.AddEdge(0, 1, Sign::kNegative);
  builder.AddEdge(1, 2, Sign::kPositive);
  SignedGraph graph = std::move(builder).Build();
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_EQ(graph.EdgeSign(0, 1), std::nullopt);
}

TEST(SignedGraphTest, BuildValidatedReportsConflict) {
  SignedGraphBuilder builder;
  builder.AddEdge(0, 1, Sign::kPositive);
  builder.AddEdge(0, 1, Sign::kNegative);
  Result<SignedGraph> result = std::move(builder).BuildValidated();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(SignedGraphDeathTest, SelfLoopRejected) {
  SignedGraphBuilder builder;
  EXPECT_DEATH(builder.AddEdge(3, 3, Sign::kPositive), "self-loop");
}

TEST(SignedGraphTest, IsolatedVerticesPreserved) {
  SignedGraphBuilder builder(10);
  builder.AddEdge(0, 1, Sign::kPositive);
  SignedGraph graph = std::move(builder).Build();
  EXPECT_EQ(graph.NumVertices(), 10u);
  EXPECT_EQ(graph.Degree(9), 0u);
}

TEST(SignedGraphTest, InducedSubgraphKeepsInternalEdges) {
  // Path 0 -+ 1 -- 2 +- 3 plus chord (0,2) negative.
  SignedGraph graph = FromText("0 1 1\n1 2 -1\n2 3 1\n0 2 -1\n");
  const std::vector<VertexId> selection = {0, 2, 3};
  SignedGraph::InducedResult induced = graph.InducedSubgraph(selection);
  EXPECT_EQ(induced.graph.NumVertices(), 3u);
  EXPECT_EQ(induced.to_original, selection);
  // Edges kept: (0,2) negative -> new (0,1); (2,3) positive -> new (1,2).
  EXPECT_EQ(induced.graph.NumEdges(), 2u);
  EXPECT_TRUE(induced.graph.HasNegativeEdge(0, 1));
  EXPECT_TRUE(induced.graph.HasPositiveEdge(1, 2));
  EXPECT_EQ(induced.graph.EdgeSign(0, 2), std::nullopt);
}

TEST(SignedGraphTest, InducedSubgraphOfNothingIsEmpty) {
  SignedGraph graph = FromText("0 1 1\n");
  SignedGraph::InducedResult induced = graph.InducedSubgraph({});
  EXPECT_EQ(induced.graph.NumVertices(), 0u);
}

// The reference InducedSubgraph: every selected edge pushed through
// SignedGraphBuilder (global sort, dedup, scatter, per-row sort).
SignedGraph::InducedResult BuilderInduced(const SignedGraph& graph,
                                          std::span<const VertexId> vertices) {
  std::vector<VertexId> to_new(graph.NumVertices(), kInvalidVertex);
  for (size_t i = 0; i < vertices.size(); ++i) {
    to_new[vertices[i]] = static_cast<VertexId>(i);
  }
  SignedGraphBuilder builder(static_cast<VertexId>(vertices.size()));
  graph.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
    if (to_new[u] != kInvalidVertex && to_new[v] != kInvalidVertex) {
      builder.AddEdge(to_new[u], to_new[v], sign);
    }
  });
  return {std::move(builder).Build(),
          std::vector<VertexId>(vertices.begin(), vertices.end())};
}

template <typename T>
std::vector<T> ToVector(std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

void ExpectSameInduced(const SignedGraph& graph,
                       const std::vector<VertexId>& selection,
                       const std::string& label) {
  SCOPED_TRACE(label);
  const SignedGraph::InducedResult got = graph.InducedSubgraph(selection);
  const SignedGraph::InducedResult want = BuilderInduced(graph, selection);
  EXPECT_EQ(got.to_original, want.to_original);
  EXPECT_EQ(got.graph.NumVertices(), want.graph.NumVertices());
  EXPECT_EQ(ToVector(got.graph.PosOffsets()),
            ToVector(want.graph.PosOffsets()));
  EXPECT_EQ(ToVector(got.graph.NegOffsets()),
            ToVector(want.graph.NegOffsets()));
  EXPECT_EQ(ToVector(got.graph.PosNeighborEntries()),
            ToVector(want.graph.PosNeighborEntries()));
  EXPECT_EQ(ToVector(got.graph.NegNeighborEntries()),
            ToVector(want.graph.NegNeighborEntries()));
  EXPECT_EQ(got.graph.MemoryBytes(), want.graph.MemoryBytes());
  EXPECT_FALSE(got.graph.FingerprintHint().has_value());
}

// Every selection shape the solvers make: ascending masks (vertex
// reduction, |C*|-core, sampling), seeds-first balls (PolarSeeds),
// arbitrary orders, and the degenerate empty / single / full cases.
void ExpectSameInducedForAllSelections(const SignedGraph& graph,
                                       uint64_t seed) {
  const VertexId n = graph.NumVertices();
  Rng rng(seed);
  std::vector<VertexId> ascending;
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextBernoulli(0.6)) ascending.push_back(v);
  }
  std::vector<VertexId> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  // Two seeds of the highest degree, then their neighbours in adjacency
  // order, as PolarSeeds' radius-1 ball lists them.
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&graph](VertexId a, VertexId b) {
                     return graph.Degree(a) > graph.Degree(b);
                   });
  std::vector<VertexId> seeds_first;
  std::vector<uint8_t> taken(n, 0);
  auto take = [&](VertexId v) {
    if (!taken[v]) {
      taken[v] = 1;
      seeds_first.push_back(v);
    }
  };
  if (n >= 2) {
    const VertexId u = std::max(by_degree[0], by_degree[1]);
    const VertexId v = std::min(by_degree[0], by_degree[1]);
    take(u);
    take(v);
    for (VertexId seed_vertex : {u, v}) {
      for (VertexId w : graph.PositiveNeighbors(seed_vertex)) take(w);
      for (VertexId w : graph.NegativeNeighbors(seed_vertex)) take(w);
    }
  }

  std::vector<VertexId> full(n);
  std::iota(full.begin(), full.end(), VertexId{0});
  std::vector<VertexId> reversed(full.rbegin(), full.rend());

  ExpectSameInduced(graph, ascending, "ascending");
  ExpectSameInduced(graph, shuffled, "shuffled");
  ExpectSameInduced(graph, seeds_first, "seeds-first");
  ExpectSameInduced(graph, {}, "empty");
  ExpectSameInduced(graph, full, "full");
  ExpectSameInduced(graph, reversed, "full reversed");
  if (n > 0) {
    ExpectSameInduced(graph, {by_degree[0]}, "single hub");
    ExpectSameInduced(graph, {n - 1}, "single last");
  }
}

TEST(SignedGraphTest, InducedSubgraphMatchesBuilderOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SignedGraph graph = testing_util::RandomSignedGraph(
        static_cast<VertexId>(50 * seed), 400 * seed, 0.1 * seed, seed);
    ExpectSameInducedForAllSelections(graph, seed);
  }
}

TEST(SignedGraphTest, InducedSubgraphMatchesBuilderOnHubHeavyBscl) {
  BsclOptions options;
  options.num_vertices = 5000;
  options.num_edges = 40000;
  options.seed = 3;
  const SignedGraph graph = GenerateBsclSignedGraph(options);
  ExpectSameInducedForAllSelections(graph, 17);
}

TEST(SignedGraphTest, InducedSubgraphMatchesBuilderOnMappedGraph) {
  BsclOptions options;
  options.num_vertices = 2000;
  options.num_edges = 12000;
  options.seed = 5;
  const SignedGraph owned = GenerateBsclSignedGraph(options);
  const std::string path = ::testing::TempDir() + "/induced_mapped.mbcg";
  ASSERT_TRUE(WriteSignedGraphBinary(owned, path).ok());
  Result<SignedGraph> mapped = MmapSignedGraphBinary(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped.value().IsMapped());
  ExpectSameInducedForAllSelections(mapped.value(), 23);
}

TEST(SignedGraphDeathTest, InducedSubgraphRejectsDuplicateIds) {
  const SignedGraph graph = FromText("0 1 1\n1 2 -1\n");
  const std::vector<VertexId> selection = {0, 2, 0};
  EXPECT_DEATH(graph.InducedSubgraph(selection), "duplicate vertex");
}

TEST(SignedGraphTest, MemoryBytesScalesWithEdges) {
  SignedGraph small = testing_util::RandomSignedGraph(100, 200, 0.3, 1);
  SignedGraph large = testing_util::RandomSignedGraph(100, 2000, 0.3, 1);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

}  // namespace
}  // namespace mbc
