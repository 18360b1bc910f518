// Copyright 2026 The balanced-clique Authors.
#include "src/service/degraded.h"

#include "src/core/mbc_heu.h"

namespace mbc {

QueryResult ComputeDegradedResult(const SignedGraph& graph, QueryKind kind,
                                  uint32_t tau) {
  QueryResult result;
  if (graph.NumVertices() == 0) return result;
  // The heuristic tier with local search off: the greedy anchor-pool sweep
  // (five degree/polar anchors plus the degeneracy tail), O(m) time per
  // anchor plus dense rows over its first pick's neighbourhood only.
  MbcHeuOptions options;
  options.local_search_iterations = 0;

  if (kind == QueryKind::kMbc || kind == QueryKind::kMbcHeu ||
      kind == QueryKind::kMbcTol) {
    // A balanced clique frustrates no edge, so the same lower bound serves
    // the tolerant kind for any budget (result.frustrated stays 0).
    result.clique = MbcHeuristicSearch(graph, tau, options).clique;
    return result;
  }

  // PF / gMBC: the gMBC sweep with the greedy in place of MBC*. A clique
  // at tau certifies beta(G) >= tau, so beta is the last tau whose sweep
  // returns a clique. Sizes are non-increasing in tau because the greedy
  // never reads tau: each step only filters the same anchor cliques.
  for (uint32_t t = 0;; ++t) {
    const BalancedClique clique = MbcHeuristicSearch(graph, t, options).clique;
    if (clique.empty()) break;
    result.beta = t;
    if (kind == QueryKind::kGmbc) {
      result.gmbc_sizes.push_back(static_cast<uint32_t>(clique.size()));
    }
  }
  return result;
}

}  // namespace mbc
