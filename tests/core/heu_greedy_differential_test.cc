// Copyright 2026 The balanced-clique Authors.
//
// Differential test of the MBC-Heu greedy (Algorithm 3). The reference
// below is a test-local copy of the greedy as it runs on the whole
// dichromatic network g_a of each anchor: the same anchor pool, the same
// alternating-side pick rule (the right side while it has a member and
// |C_L| >= |C_R|, else the left side; the first maximum degree in local-id
// order wins) and the same per-tau filter. MbcHeuristic and the greedy-only
// MbcHeuristicSearch (degeneracy anchors on, the brownout configuration)
// must return its witness and its greedy size on seeded community, random
// and hub-heavy BSCL graphs at tau 0..4, and on hand-made corner cases of
// the first pick; MbcHeuristicByMinSide must return the witness of every
// tau in one table.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bitset.h"
#include "src/core/mbc_heu.h"
#include "src/datasets/generators.h"
#include "src/dichromatic/network_builder.h"
#include "src/graph/cores.h"
#include "src/pf/pdecompose.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::FromText;
using testing_util::RandomSignedGraph;

// ---- Reference ----------------------------------------------------------

// The anchor pool: maxima of min{d+, d-}, d+, d-, d and the polar-core
// number, then the last `degeneracy_anchors` vertices of the degeneracy
// order, deduplicated in first-seen order.
std::vector<VertexId> ReferenceAnchors(const SignedGraph& graph,
                                       uint32_t degeneracy_anchors) {
  const VertexId n = graph.NumVertices();
  VertexId by_min = 0, by_pos = 0, by_neg = 0, by_total = 0;
  uint32_t best_min = 0, best_pos = 0, best_neg = 0, best_total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t pos = graph.PositiveDegree(v);
    const uint32_t neg = graph.NegativeDegree(v);
    if (std::min(pos, neg) > best_min) {
      best_min = std::min(pos, neg);
      by_min = v;
    }
    if (pos > best_pos) {
      best_pos = pos;
      by_pos = v;
    }
    if (neg > best_neg) {
      best_neg = neg;
      by_neg = v;
    }
    if (pos + neg > best_total) {
      best_total = pos + neg;
      by_total = v;
    }
  }
  const PolarDecomposition polar = PDecompose(graph);
  VertexId by_polar = 0;
  uint32_t best_pn = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (polar.polar_core_number[v] > best_pn) {
      best_pn = polar.polar_core_number[v];
      by_polar = v;
    }
  }
  std::vector<VertexId> anchors = {by_min, by_pos, by_neg, by_total,
                                   by_polar};
  if (degeneracy_anchors > 0) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
    const size_t take = std::min<size_t>(degeneracy_anchors, n);
    for (size_t i = 0; i < take; ++i) {
      anchors.push_back(degeneracy.order[n - 1 - i]);
    }
  }
  std::vector<VertexId> unique;
  for (VertexId anchor : anchors) {
    if (std::find(unique.begin(), unique.end(), anchor) == unique.end()) {
      unique.push_back(anchor);
    }
  }
  return unique;
}

// The greedy grown from `anchor` on the whole g_anchor.
BalancedClique ReferenceGreedy(const SignedGraph& graph, VertexId anchor) {
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(anchor);
  const DichromaticGraph& g = net.graph;
  const uint32_t k = g.NumVertices();
  std::vector<uint32_t> members = {0};
  size_t left_size = 1;
  size_t right_size = 0;
  // No vertex is its own neighbour, so a candidate set of common
  // neighbours never holds a member.
  Bitset candidates = g.AdjacencyOf(0);
  while (candidates.Any()) {
    const size_t left_avail = candidates.CountAnd(g.LeftMask());
    const size_t right_avail = candidates.Count() - left_avail;
    const bool pick_right =
        left_avail == 0 || (right_avail != 0 && left_size >= right_size);
    bool found = false;
    uint32_t best = 0;
    uint32_t best_degree = 0;
    for (uint32_t v = 0; v < k; ++v) {
      if (!candidates.Test(v) || g.IsLeft(v) == pick_right) continue;
      const uint32_t degree = g.DegreeWithin(v, candidates);
      if (!found || degree > best_degree) {
        found = true;
        best = v;
        best_degree = degree;
      }
    }
    members.push_back(best);
    (g.IsLeft(best) ? left_size : right_size) += 1;
    candidates &= g.AdjacencyOf(best);
  }
  BalancedClique clique;
  for (uint32_t v : members) {
    (g.IsLeft(v) ? clique.left : clique.right).push_back(net.to_original[v]);
  }
  clique.Canonicalize();
  return clique;
}

// Every anchor's greedy clique, in anchor-pool order.
std::vector<BalancedClique> ReferenceAnchorCliques(
    const SignedGraph& graph, uint32_t degeneracy_anchors) {
  std::vector<BalancedClique> cliques;
  if (graph.NumVertices() == 0) return cliques;
  for (VertexId anchor : ReferenceAnchors(graph, degeneracy_anchors)) {
    cliques.push_back(ReferenceGreedy(graph, anchor));
  }
  return cliques;
}

// The first largest anchor clique that satisfies tau (empty if none).
BalancedClique ReferenceBest(const std::vector<BalancedClique>& cliques,
                             uint32_t tau) {
  BalancedClique best;
  for (const BalancedClique& clique : cliques) {
    if (clique.SatisfiesThreshold(tau) && clique.size() > best.size()) {
      best = clique;
    }
  }
  return best;
}

size_t ReferenceGreedySize(const std::vector<BalancedClique>& cliques) {
  size_t size = 0;
  for (const BalancedClique& clique : cliques) {
    size = std::max(size, clique.size());
  }
  return size;
}

// ---- Comparison ---------------------------------------------------------

// MbcHeuristic and the greedy-only MbcHeuristicSearch against the
// reference at tau 0..4, and MbcHeuristicByMinSide at every tau.
void ExpectMatchesReference(const std::string& name,
                            const SignedGraph& graph) {
  const std::vector<BalancedClique> plain = ReferenceAnchorCliques(graph, 0);
  const std::vector<BalancedClique> pooled = ReferenceAnchorCliques(graph, 4);
  MbcHeuOptions greedy_only;
  greedy_only.local_search_iterations = 0;
  for (uint32_t tau = 0; tau <= 4; ++tau) {
    EXPECT_EQ(MbcHeuristic(graph, tau), ReferenceBest(plain, tau))
        << name << " MbcHeuristic tau=" << tau;
    const MbcHeuResult search = MbcHeuristicSearch(graph, tau, greedy_only);
    EXPECT_EQ(search.clique, ReferenceBest(pooled, tau))
        << name << " MbcHeuristicSearch tau=" << tau;
    EXPECT_EQ(search.stats.greedy_size, ReferenceGreedySize(pooled))
        << name << " greedy_size tau=" << tau;
  }
  // The one-sweep table holds the per-tau answer up to the last tau with
  // a clique, and every larger tau has none.
  const std::vector<BalancedClique> by_min_side =
      MbcHeuristicByMinSide(graph, greedy_only);
  for (uint32_t tau = 0; tau <= by_min_side.size(); ++tau) {
    const BalancedClique want = ReferenceBest(pooled, tau);
    if (tau < by_min_side.size()) {
      EXPECT_FALSE(want.empty()) << name << " by_min_side tau=" << tau;
      EXPECT_EQ(by_min_side[tau], want) << name << " by_min_side tau=" << tau;
    } else {
      EXPECT_TRUE(want.empty()) << name << " by_min_side tau=" << tau;
    }
  }
}

TEST(HeuGreedyDifferentialTest, CommunityGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CommunityGraphOptions options;
    options.num_vertices = 300 + 100 * static_cast<VertexId>(seed);
    options.num_edges = 4000 + 1500 * seed;
    options.num_communities = 2 + static_cast<uint32_t>(seed % 4);
    options.negative_ratio = 0.2 + 0.04 * static_cast<double>(seed);
    options.seed = seed;
    ExpectMatchesReference("community seed=" + std::to_string(seed),
                           GenerateCommunitySignedGraph(options));
  }
}

TEST(HeuGreedyDifferentialTest, RandomGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectMatchesReference(
        "random seed=" + std::to_string(seed),
        RandomSignedGraph(120 + 20 * static_cast<VertexId>(seed),
                          900 + 150 * seed, 0.25 + 0.03 * seed, 100 + seed));
  }
}

TEST(HeuGreedyDifferentialTest, HubHeavyBsclGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    BsclOptions options;
    options.num_vertices = 4000;
    options.num_edges = 20000;
    options.powerlaw_alpha = 0.85 + 0.05 * static_cast<double>(seed % 3);
    options.p_positive_sign = seed % 2 == 0 ? 0.6 : 0.9;
    options.seed = seed;
    ExpectMatchesReference("bscl seed=" + std::to_string(seed),
                           GenerateBsclSignedGraph(options));
  }
}

TEST(HeuGreedyDifferentialTest, PlantedCliques) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectMatchesReference(
        "planted seed=" + std::to_string(seed),
        PlantBalancedCliques(RandomSignedGraph(400, 3000, 0.4, seed),
                             {{5, 6}, {4, 4}}, 30 + seed));
  }
}

// ---- Corner cases of the first pick -------------------------------------

// Every anchor has only positive neighbours, so the first pick comes from
// the left. Vertex 0's neighbours 1..4 tie at degree 1; the first of them
// wins, giving {0, 1, 2}, not {0, 3, 4}.
TEST(HeuGreedyDifferentialTest, AnchorWithoutNegativeNeighbour) {
  const SignedGraph graph =
      FromText("0 1 1\n0 2 1\n0 3 1\n0 4 1\n1 2 1\n3 4 1\n");
  ExpectMatchesReference("all-positive", graph);
  const BalancedClique clique = MbcHeuristic(graph, 0);
  EXPECT_EQ(clique.left, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_TRUE(clique.right.empty());
}

// Vertex 0 has no edge but is the min{d+, d-} anchor (every vertex ties
// at 0, the first wins); its greedy is {0} alone.
TEST(HeuGreedyDifferentialTest, DegreeZeroAnchor) {
  const SignedGraph graph = FromText("1 2 1\n2 3 1\n");
  ExpectMatchesReference("isolated-anchor", graph);
  SignedGraphBuilder builder(3);
  const SignedGraph edgeless = std::move(builder).Build();
  ExpectMatchesReference("edgeless", edgeless);
  EXPECT_EQ(MbcHeuristic(edgeless, 0).left, (std::vector<VertexId>{0}));
}

// The anchor's negative neighbours 2 and 3 have no neighbour in g_0 but
// the anchor, so the first pick (2) ends the greedy at {0 | 2}.
TEST(HeuGreedyDifferentialTest, PickWithoutNetworkNeighbour) {
  const SignedGraph graph = FromText("0 1 1\n0 2 -1\n0 3 -1\n");
  ExpectMatchesReference("star", graph);
  const BalancedClique clique = MbcHeuristic(graph, 0);
  EXPECT_EQ(clique.left, (std::vector<VertexId>{0}));
  EXPECT_EQ(clique.right, (std::vector<VertexId>{2}));
}

// The anchor 0 (L: 1, 2; R: 3, 4) has two right members of equal degree:
// 3 is joined to 1 and 4 to 2, both by non-conflicting negative edges.
// The first of them wins, giving {0, 1 | 3}, not {0, 2 | 4}.
TEST(HeuGreedyDifferentialTest, TieOnFirstPickDegree) {
  const SignedGraph graph =
      FromText("0 1 1\n0 2 1\n0 3 -1\n0 4 -1\n1 3 -1\n2 4 -1\n");
  ExpectMatchesReference("tie", graph);
  const BalancedClique clique = MbcHeuristic(graph, 1);
  EXPECT_EQ(clique.left, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(clique.right, (std::vector<VertexId>{3}));
}

}  // namespace
}  // namespace mbc
