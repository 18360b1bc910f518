// Copyright 2026 The balanced-clique Authors.
#include "src/service/degraded.h"

#include <vector>

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
  // at tau certifies beta(G) >= tau, so beta is the last tau with a
  // clique. Sizes are non-increasing in tau because the greedy never reads
  // tau: one sweep's anchor cliques, filtered by their smaller side,
  // answer every tau.
  const std::vector<BalancedClique> by_min_side =
      MbcHeuristicByMinSide(graph, options);
  result.beta = static_cast<uint32_t>(by_min_side.size() - 1);
  if (kind == QueryKind::kGmbc) {
    for (const BalancedClique& clique : by_min_side) {
      result.gmbc_sizes.push_back(static_cast<uint32_t>(clique.size()));
    }
  }
  return result;
}

}  // namespace mbc
