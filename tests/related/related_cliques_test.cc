// Copyright 2026 The balanced-clique Authors.
#include "src/related/related_cliques.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::FromText;
using testing_util::RandomSignedGraph;

// Brute-force references.
std::vector<VertexId> BruteTrusted(const SignedGraph& graph) {
  const VertexId n = graph.NumVertices();
  std::vector<VertexId> best;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<VertexId> set;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) set.push_back(v);
    }
    bool ok = true;
    for (size_t i = 0; i < set.size() && ok; ++i) {
      for (size_t j = i + 1; j < set.size(); ++j) {
        if (!graph.HasPositiveEdge(set[i], set[j])) {
          ok = false;
          break;
        }
      }
    }
    if (ok && set.size() > best.size()) best = set;
  }
  return best;
}

size_t BruteAlphaK(const SignedGraph& graph, double alpha, uint32_t k) {
  const VertexId n = graph.NumVertices();
  size_t best = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<VertexId> set;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) set.push_back(v);
    }
    if (set.size() > best && IsAlphaKClique(graph, set, alpha, k)) {
      best = set.size();
    }
  }
  return best;
}

TEST(TrustedCliqueTest, Figure2) {
  // Largest all-positive clique in Figure 2: any of the positive
  // triangles {v3,v4,v5} / {v6,v7,v8}.
  const std::vector<VertexId> clique = MaxTrustedClique(Figure2Graph());
  EXPECT_EQ(clique.size(), 3u);
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      EXPECT_TRUE(Figure2Graph().HasPositiveEdge(clique[i], clique[j]));
    }
  }
}

TEST(TrustedCliqueTest, MatchesBruteForceRandomized) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const SignedGraph graph = RandomSignedGraph(14, 55, 0.4, seed);
    EXPECT_EQ(MaxTrustedClique(graph).size(), BruteTrusted(graph).size())
        << "seed=" << seed;
  }
}

TEST(TrustedCliqueTest, AllNegativeGraphGivesSingleton) {
  const SignedGraph graph = FromText("0 1 -1\n1 2 -1\n0 2 -1\n");
  EXPECT_EQ(MaxTrustedClique(graph).size(), 1u);
}

TEST(AlphaKCliqueTest, ValidatorHandExamples) {
  // Triangle: ++- . Vertex 0: edges (0,1)+ (0,2)-.
  const SignedGraph graph = FromText("0 1 1\n1 2 1\n0 2 -1\n");
  // alpha=1, k=1: each vertex needs >= 1 positive and <= 1 negative.
  EXPECT_TRUE(IsAlphaKClique(graph, {0, 1, 2}, 1.0, 1));
  // alpha=2, k=1: vertex 0 has only 1 positive neighbor inside.
  EXPECT_FALSE(IsAlphaKClique(graph, {0, 1, 2}, 2.0, 1));
  // k=0: vertex 0 has a negative neighbor inside.
  EXPECT_FALSE(IsAlphaKClique(graph, {0, 1, 2}, 1.0, 0));
  // Non-clique rejected.
  EXPECT_FALSE(IsAlphaKClique(FromText("0 1 1\n1 2 1\n"), {0, 1, 2}, 0, 1));
}

TEST(AlphaKCliqueTest, MatchesBruteForceRandomized) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const SignedGraph graph = RandomSignedGraph(12, 45, 0.45, seed);
    for (const auto& [alpha, k] :
         std::vector<std::pair<double, uint32_t>>{{1.0, 1}, {2.0, 1},
                                                  {1.0, 2}, {0.5, 2}}) {
      AlphaKCliqueOptions options;
      options.alpha = alpha;
      options.k = k;
      const AlphaKCliqueResult result = MaxAlphaKClique(graph, options);
      EXPECT_EQ(result.clique.size(), BruteAlphaK(graph, alpha, k))
          << "seed=" << seed << " alpha=" << alpha << " k=" << k;
      if (!result.clique.empty()) {
        EXPECT_TRUE(IsAlphaKClique(graph, result.clique, alpha, k));
      }
    }
  }
}

TEST(AlphaKCliqueTest, BalancedCliqueNeedNotBeAlphaK) {
  // The paper's Related Work point: the notions are incomparable. The
  // Figure 2 optimum {v3,v4,v5 | v6,v7,v8} has 3 negative neighbors per
  // vertex, so it is not a (1,2)-clique, while a (1,2)-clique found on
  // the same graph need not be balanced.
  const SignedGraph graph = Figure2Graph();
  // Each member has 2 positive (own triangle) and 3 negative neighbors.
  const std::vector<VertexId> balanced = {2, 3, 4, 5, 6, 7};
  EXPECT_FALSE(IsAlphaKClique(graph, balanced, 1.0, 2));   // neg 3 > 2
  EXPECT_FALSE(IsAlphaKClique(graph, balanced, 1.0, 3));   // pos 2 < 3
  EXPECT_TRUE(IsAlphaKClique(graph, balanced, 2.0 / 3.0, 3));
}

TEST(AlphaKCliqueTest, TimeLimitDegradesGracefully) {
  const SignedGraph graph = RandomSignedGraph(400, 4000, 0.4, 3);
  ExecutionContext exec(Deadline::After(0.0));
  AlphaKCliqueOptions options;
  options.alpha = 1.0;
  options.k = 2;
  options.exec = &exec;
  const AlphaKCliqueResult result = MaxAlphaKClique(graph, options);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kDeadline);
  if (!result.clique.empty()) {
    EXPECT_TRUE(IsAlphaKClique(graph, result.clique, 1.0, 2));
  }
}

}  // namespace
}  // namespace mbc
