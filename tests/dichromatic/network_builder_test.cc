// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/network_builder.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/cores.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

// Reproduces the paper's Example 1 / Figure 4: the ego-network of v0 (as
// the lowest-ranked vertex) excludes v2 and v8; it has 12 edges among v0's
// neighbors, of which exactly 6 conflicting ones are removed.
TEST(NetworkBuilderTest, PaperFigure4Example) {
  const SignedGraph graph = testing_util::Figure4Graph();
  // Rank v0 lowest; everyone else higher.
  std::vector<uint32_t> rank(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) rank[v] = v;

  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(0, rank.data());

  // Members: v0 plus its 6 neighbors (v2 and v8 excluded).
  ASSERT_EQ(net.graph.NumVertices(), 7u);
  std::vector<VertexId> members = net.to_original;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<VertexId>{0, 1, 3, 4, 5, 6, 7}));

  // Edge-count bookkeeping of Example 1 (u's own edges excluded).
  EXPECT_EQ(net.ego_edges, 12u);
  EXPECT_EQ(net.dichromatic_edges, 6u);

  // Local index lookup.
  std::map<VertexId, uint32_t> local;
  for (uint32_t i = 0; i < net.to_original.size(); ++i) {
    local[net.to_original[i]] = i;
  }

  // Sides: V_L = {v0, v1, v3, v4}, V_R = {v5, v6, v7}.
  EXPECT_TRUE(net.graph.IsLeft(local[0]));
  EXPECT_TRUE(net.graph.IsLeft(local[1]));
  EXPECT_TRUE(net.graph.IsLeft(local[3]));
  EXPECT_TRUE(net.graph.IsLeft(local[4]));
  EXPECT_FALSE(net.graph.IsLeft(local[5]));
  EXPECT_FALSE(net.graph.IsLeft(local[6]));
  EXPECT_FALSE(net.graph.IsLeft(local[7]));

  // The six conflicting edges are gone...
  EXPECT_FALSE(net.graph.HasEdge(local[1], local[4]));
  EXPECT_FALSE(net.graph.HasEdge(local[1], local[5]));
  EXPECT_FALSE(net.graph.HasEdge(local[3], local[5]));
  EXPECT_FALSE(net.graph.HasEdge(local[4], local[5]));
  EXPECT_FALSE(net.graph.HasEdge(local[3], local[7]));
  EXPECT_FALSE(net.graph.HasEdge(local[4], local[7]));
  // ...and the six non-conflicting ones survive.
  EXPECT_TRUE(net.graph.HasEdge(local[1], local[3]));
  EXPECT_TRUE(net.graph.HasEdge(local[3], local[4]));
  EXPECT_TRUE(net.graph.HasEdge(local[6], local[7]));
  EXPECT_TRUE(net.graph.HasEdge(local[5], local[6]));
  EXPECT_TRUE(net.graph.HasEdge(local[1], local[6]));
  EXPECT_TRUE(net.graph.HasEdge(local[4], local[6]));
  // u is adjacent to every member.
  for (uint32_t i = 1; i < net.graph.NumVertices(); ++i) {
    EXPECT_TRUE(net.graph.HasEdge(0, i));
  }
}

TEST(NetworkBuilderTest, RankFilterExcludesLowerRankedNeighbors) {
  const SignedGraph graph = testing_util::Figure2Graph();
  std::vector<uint32_t> rank(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) rank[v] = v;
  DichromaticNetworkBuilder builder(graph);
  // Vertex 4 (v5): neighbors are 2, 3 (positive) and 5, 6, 7 (negative).
  // Only higher-ranked 5, 6, 7 survive the rank filter.
  const DichromaticNetwork net = builder.Build(4, rank.data());
  EXPECT_EQ(net.graph.NumVertices(), 4u);
  EXPECT_EQ(net.graph.LeftMask().Count(), 1u);  // just u
}

TEST(NetworkBuilderTest, NoRankIncludesAllNeighbors) {
  const SignedGraph graph = testing_util::Figure2Graph();
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(4);
  EXPECT_EQ(net.graph.NumVertices(), 6u);  // u + 2 positive + 3 negative
  EXPECT_EQ(net.graph.LeftMask().Count(), 3u);
}

TEST(NetworkBuilderTest, AliveFilter) {
  const SignedGraph graph = testing_util::Figure2Graph();
  std::vector<uint8_t> alive(graph.NumVertices(), 1);
  alive[5] = 0;
  alive[6] = 0;
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(4, nullptr, alive.data());
  EXPECT_EQ(net.graph.NumVertices(), 4u);  // u, 2, 3, 7
}

TEST(NetworkBuilderTest, ReusableAcrossCalls) {
  const SignedGraph graph = testing_util::Figure4Graph();
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork first = builder.Build(0);
  const DichromaticNetwork second = builder.Build(2);  // degree-1 vertex
  const DichromaticNetwork third = builder.Build(0);
  EXPECT_EQ(first.graph.NumVertices(), third.graph.NumVertices());
  EXPECT_EQ(first.ego_edges, third.ego_edges);
  EXPECT_NE(first.graph.NumVertices(), second.graph.NumVertices());
}

// BuildInto (the clear-and-refill path) must be indistinguishable from a
// fresh Build, including when the reused network shrinks and re-grows —
// stale adjacency rows from a larger previous network must not leak.
TEST(NetworkBuilderTest, BuildIntoMatchesFreshBuild) {
  const SignedGraph graph = testing_util::RandomSignedGraph(50, 350, 0.4, 9);
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork reused;
  // Visit every vertex twice in opposite orders so each network is
  // refilled over both larger and smaller predecessors.
  std::vector<VertexId> visits;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) visits.push_back(u);
  for (VertexId u = graph.NumVertices(); u > 0; --u) visits.push_back(u - 1);
  for (VertexId u : visits) {
    const DichromaticNetwork fresh = builder.Build(u);
    builder.BuildInto(u, nullptr, nullptr, &reused);
    ASSERT_EQ(reused.graph.NumVertices(), fresh.graph.NumVertices())
        << "u=" << u;
    ASSERT_EQ(reused.to_original, fresh.to_original) << "u=" << u;
    ASSERT_EQ(reused.ego_edges, fresh.ego_edges) << "u=" << u;
    ASSERT_EQ(reused.dichromatic_edges, fresh.dichromatic_edges) << "u=" << u;
    const uint32_t k = fresh.graph.NumVertices();
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ(reused.graph.IsLeft(i), fresh.graph.IsLeft(i)) << "u=" << u;
      for (uint32_t j = 0; j < k; ++j) {
        ASSERT_EQ(reused.graph.HasEdge(i, j), fresh.graph.HasEdge(i, j))
            << "u=" << u << " i=" << i << " j=" << j;
      }
    }
  }
}

// Every clique of the dichromatic network that contains u corresponds to a
// balanced clique of the original graph (one direction of Theorem 2).
TEST(NetworkBuilderTest, CliquesAreBalancedInOriginal) {
  const SignedGraph graph = testing_util::RandomSignedGraph(60, 400, 0.4, 21);
  DichromaticNetworkBuilder builder(graph);
  for (VertexId u = 0; u < graph.NumVertices(); u += 7) {
    const DichromaticNetwork net = builder.Build(u);
    const uint32_t k = net.graph.NumVertices();
    // Check all edges of g_u: within-side edges must be positive in G,
    // cross-side edges negative.
    for (uint32_t i = 0; i < k; ++i) {
      for (uint32_t j = i + 1; j < k; ++j) {
        if (!net.graph.HasEdge(i, j)) continue;
        const VertexId a = net.to_original[i];
        const VertexId b = net.to_original[j];
        if (net.graph.IsLeft(i) == net.graph.IsLeft(j)) {
          EXPECT_TRUE(graph.HasPositiveEdge(a, b));
        } else {
          EXPECT_TRUE(graph.HasNegativeEdge(a, b));
        }
      }
    }
  }
}

// --- Brute-force reference ---------------------------------------------
//
// The builder finds each member-member edge once, from its lower endpoint
// (out-lists for ranked builds, the id-sorted suffix for unranked ones). The reference below instead asks HasPositiveEdge/HasNegativeEdge
// for every member pair, so any edge the one-sided scan misses or counts
// twice shows up as a mismatch.

// Checks `net` against g_u built by brute force: members and their local
// order, sides, every HasEdge, ego_edges and dichromatic_edges.
void ExpectMatchesBruteForce(const SignedGraph& graph, VertexId u,
                             const uint32_t* rank, const uint8_t* alive,
                             const DichromaticNetwork& net,
                             const std::string& label) {
  auto joins = [&](VertexId v) {
    return (alive == nullptr || alive[v] != 0) &&
           (rank == nullptr || rank[v] > rank[u]);
  };
  std::vector<VertexId> members{u};
  for (VertexId v : graph.PositiveNeighbors(u)) {
    if (joins(v)) members.push_back(v);
  }
  const size_t num_left = members.size();
  for (VertexId v : graph.NegativeNeighbors(u)) {
    if (joins(v)) members.push_back(v);
  }
  ASSERT_EQ(net.to_original, members) << label;
  const uint32_t k = static_cast<uint32_t>(members.size());
  ASSERT_EQ(net.graph.NumVertices(), k) << label;

  uint64_t ego_edges = 0;
  uint64_t dichromatic_edges = 0;
  for (uint32_t i = 0; i < k; ++i) {
    ASSERT_EQ(net.graph.IsLeft(i), i < num_left) << label << " i=" << i;
    ASSERT_FALSE(net.graph.HasEdge(i, i)) << label << " i=" << i;
    for (uint32_t j = i + 1; j < k; ++j) {
      bool want = true;  // u is adjacent to every member
      if (i > 0) {
        const bool positive = graph.HasPositiveEdge(members[i], members[j]);
        const bool negative = graph.HasNegativeEdge(members[i], members[j]);
        const bool same_side = (i < num_left) == (j < num_left);
        want = same_side ? positive : negative;
        ego_edges += positive || negative;
        dichromatic_edges += want;
      }
      ASSERT_EQ(net.graph.HasEdge(i, j), want)
          << label << " i=" << i << " j=" << j;
      ASSERT_EQ(net.graph.HasEdge(j, i), want)
          << label << " i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(net.ego_edges, ego_edges) << label;
  EXPECT_EQ(net.dichromatic_edges, dichromatic_edges) << label;
}

std::vector<uint32_t> ShuffledRank(VertexId n, uint64_t seed) {
  std::vector<uint32_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(rank.begin(), rank.end(), rng);
  return rank;
}

std::vector<uint8_t> RandomAlive(VertexId n, uint64_t seed) {
  std::vector<uint8_t> alive(n);
  std::mt19937_64 rng(seed);
  for (uint8_t& a : alive) a = (rng() % 4) != 0;  // ~75% alive
  return alive;
}

// Ranked (degeneracy order and a random permutation), unranked, and
// alive-filtered builds of every vertex of several random graphs.
TEST(NetworkBuilderTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    const SignedGraph graph =
        testing_util::RandomSignedGraph(120, 1500, 0.4, seed);
    const VertexId n = graph.NumVertices();
    const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
    const std::vector<uint32_t> shuffled = ShuffledRank(n, seed);
    std::vector<uint8_t> alive = RandomAlive(n, seed + 1);
    DichromaticNetworkBuilder by_degeneracy(graph);
    DichromaticNetworkBuilder by_shuffle(graph);
    DichromaticNetworkBuilder unranked(graph);
    DichromaticNetwork net;
    for (VertexId u = 0; u < n; ++u) {
      const std::string at =
          " seed=" + std::to_string(seed) + " u=" + std::to_string(u);
      by_degeneracy.BuildInto(u, degeneracy.rank.data(), nullptr, &net);
      ExpectMatchesBruteForce(graph, u, degeneracy.rank.data(), nullptr, net,
                              "degeneracy" + at);
      by_shuffle.BuildInto(u, shuffled.data(), nullptr, &net);
      ExpectMatchesBruteForce(graph, u, shuffled.data(), nullptr, net,
                              "shuffled" + at);
      unranked.BuildInto(u, nullptr, nullptr, &net);
      ExpectMatchesBruteForce(graph, u, nullptr, nullptr, net,
                              "unranked" + at);
      if (alive[u] == 0) continue;
      by_degeneracy.BuildInto(u, degeneracy.rank.data(), alive.data(), &net);
      ExpectMatchesBruteForce(graph, u, degeneracy.rank.data(), alive.data(),
                              net, "degeneracy+alive" + at);
      unranked.BuildInto(u, nullptr, alive.data(), &net);
      ExpectMatchesBruteForce(graph, u, nullptr, alive.data(), net,
                              "unranked+alive" + at);
    }
  }
}

// A BSCL graph has a few hubs with lists of hundreds of neighbours. Build
// the egos of the hubs, of their neighbours and of a spread of other
// vertices, ranked and unranked.
TEST(NetworkBuilderTest, MatchesBruteForceOnHubHeavyBscl) {
  BsclOptions options;
  options.num_vertices = 3000;
  options.num_edges = 20000;
  options.seed = 7;
  const SignedGraph graph = GenerateBsclSignedGraph(options);
  const VertexId n = graph.NumVertices();
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), 0u);
  std::sort(by_degree.begin(), by_degree.end(), [&](VertexId a, VertexId b) {
    return graph.Degree(a) > graph.Degree(b);
  });
  const VertexId hub = by_degree[0];
  ASSERT_GT(graph.PositiveDegree(hub), 256u);

  std::vector<VertexId> egos(by_degree.begin(), by_degree.begin() + 5);
  for (VertexId v : graph.PositiveNeighbors(hub)) egos.push_back(v);
  for (VertexId v : graph.NegativeNeighbors(hub)) egos.push_back(v);
  for (VertexId v = 0; v < n; v += 41) egos.push_back(v);

  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  const std::vector<uint8_t> alive = RandomAlive(n, 5);
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork net;
  for (VertexId u : egos) {
    const std::string at = " u=" + std::to_string(u);
    builder.BuildInto(u, degeneracy.rank.data(), nullptr, &net);
    ExpectMatchesBruteForce(graph, u, degeneracy.rank.data(), nullptr, net,
                            "degeneracy" + at);
    if (alive[u] != 0) {
      builder.BuildInto(u, degeneracy.rank.data(), alive.data(), &net);
      ExpectMatchesBruteForce(graph, u, degeneracy.rank.data(), alive.data(),
                              net, "degeneracy+alive" + at);
    }
  }
  // Unranked hub egos are large; a few suffice.
  for (size_t i = 0; i < 5; ++i) {
    const VertexId u = egos[i];
    builder.BuildInto(u, nullptr, nullptr, &net);
    ExpectMatchesBruteForce(graph, u, nullptr, nullptr, net,
                            "unranked u=" + std::to_string(u));
  }
}

// Under ascending ranks every out-list is the id-sorted suffix above its
// owner, under descending ones the prefix below it: check every ego of a
// dense graph against the reference with the members' highest ranks first
// and last.
TEST(NetworkBuilderTest, MatchesBruteForceUnderMonotoneRanks) {
  const SignedGraph graph =
      testing_util::RandomSignedGraph(300, 12000, 0.45, 41);
  const VertexId n = graph.NumVertices();
  std::vector<uint32_t> ascending(n);
  std::iota(ascending.begin(), ascending.end(), 0u);
  std::vector<uint32_t> descending(n);
  for (VertexId v = 0; v < n; ++v) descending[v] = n - 1 - v;
  for (const std::vector<uint32_t>* rank : {&ascending, &descending}) {
    DichromaticNetworkBuilder builder(graph);
    DichromaticNetwork net;
    for (VertexId u = 0; u < n; ++u) {
      builder.BuildInto(u, rank->data(), nullptr, &net);
      ExpectMatchesBruteForce(
          graph, u, rank->data(), nullptr, net,
          std::string(rank == &ascending ? "ascending" : "descending") +
              " u=" + std::to_string(u));
    }
  }
}

// One builder serves ranked and unranked calls in turn and switches
// between two rank arrays: the out-lists must follow the array each call
// passes, and unranked calls must not depend on them.
TEST(NetworkBuilderTest, ReusedAcrossRankArraysAndUnrankedCalls) {
  const SignedGraph graph =
      testing_util::RandomSignedGraph(150, 2500, 0.35, 23);
  const VertexId n = graph.NumVertices();
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  const std::vector<uint32_t> shuffled = ShuffledRank(n, 99);
  const std::vector<uint8_t> alive = RandomAlive(n, 7);
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork net;
  for (VertexId u = 0; u < n; ++u) {
    const std::string at = " u=" + std::to_string(u);
    builder.BuildInto(u, degeneracy.rank.data(), nullptr, &net);
    ExpectMatchesBruteForce(graph, u, degeneracy.rank.data(), nullptr, net,
                            "degeneracy" + at);
    builder.BuildInto(u, nullptr, nullptr, &net);
    ExpectMatchesBruteForce(graph, u, nullptr, nullptr, net,
                            "unranked" + at);
    builder.BuildInto(u, shuffled.data(), nullptr, &net);
    ExpectMatchesBruteForce(graph, u, shuffled.data(), nullptr, net,
                            "shuffled" + at);
    if (alive[u] != 0) {
      builder.BuildInto(u, shuffled.data(), alive.data(), &net);
      ExpectMatchesBruteForce(graph, u, shuffled.data(), alive.data(), net,
                              "shuffled+alive" + at);
    }
  }
}

// The out-lists are rebuilt only when the rank pointer changes. Rewrite
// one rank vector in place (same address, new contents) between ranked
// builds: the builder keeps out-lists oriented by the old contents, which
// must cost time only. Every network still matches the reference under
// the contents of the call, from the builder's own out-lists and from
// shared ones built once before the first rewrite.
TEST(NetworkBuilderTest, RankRewrittenInPlaceStillMatchesBruteForce) {
  const SignedGraph graph =
      testing_util::RandomSignedGraph(150, 2500, 0.35, 31);
  const VertexId n = graph.NumVertices();
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  std::vector<uint32_t> rank = degeneracy.rank;
  const uint32_t* address = rank.data();
  const std::vector<uint8_t> alive = RandomAlive(n, 13);
  RankedOutLists shared;
  shared.Build(graph, rank.data());
  DichromaticNetworkBuilder own(graph);
  DichromaticNetworkBuilder sharing(graph, &shared);
  DichromaticNetwork net;
  for (uint64_t round = 0; round < 4; ++round) {
    for (VertexId u = 0; u < n; ++u) {
      const std::string at =
          " round=" + std::to_string(round) + " u=" + std::to_string(u);
      for (DichromaticNetworkBuilder* builder : {&own, &sharing}) {
        const std::string label = builder == &own ? "own" : "shared";
        builder->BuildInto(u, rank.data(), nullptr, &net);
        ExpectMatchesBruteForce(graph, u, rank.data(), nullptr, net,
                                label + at);
        if (alive[u] != 0) {
          builder->BuildInto(u, rank.data(), alive.data(), &net);
          ExpectMatchesBruteForce(graph, u, rank.data(), alive.data(), net,
                                  label + "+alive" + at);
        }
      }
    }
    // New contents at the same address: a reversal, then shuffles.
    if (round == 0) {
      for (uint32_t& r : rank) r = n - 1 - r;
    } else {
      const std::vector<uint32_t> shuffled = ShuffledRank(n, 100 + round);
      std::copy(shuffled.begin(), shuffled.end(), rank.begin());
    }
    ASSERT_EQ(rank.data(), address);
  }
}

// A builder given shared out-lists reads them for their own rank array
// and falls back to out-lists of its own for any other, ranked or not.
TEST(NetworkBuilderTest, SharedOutListsServeOnlyTheirRankArray) {
  const SignedGraph graph =
      testing_util::RandomSignedGraph(150, 2500, 0.35, 37);
  const VertexId n = graph.NumVertices();
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  const std::vector<uint32_t> shuffled = ShuffledRank(n, 41);
  RankedOutLists shared;
  shared.Build(graph, degeneracy.rank.data());
  ASSERT_EQ(shared.rank(), degeneracy.rank.data());
  DichromaticNetworkBuilder first(graph, &shared);
  DichromaticNetworkBuilder second(graph, &shared);
  DichromaticNetwork net;
  for (VertexId u = 0; u < n; ++u) {
    const std::string at = " u=" + std::to_string(u);
    for (DichromaticNetworkBuilder* builder : {&first, &second}) {
      builder->BuildInto(u, degeneracy.rank.data(), nullptr, &net);
      ExpectMatchesBruteForce(graph, u, degeneracy.rank.data(), nullptr, net,
                              "degeneracy" + at);
    }
    first.BuildInto(u, shuffled.data(), nullptr, &net);
    ExpectMatchesBruteForce(graph, u, shuffled.data(), nullptr, net,
                            "shuffled" + at);
    first.BuildInto(u, nullptr, nullptr, &net);
    ExpectMatchesBruteForce(graph, u, nullptr, nullptr, net,
                            "unranked" + at);
  }
}

}  // namespace
}  // namespace mbc
