// Copyright 2026 The balanced-clique Authors.
//
// The degraded answer tier served under brownout: the heuristic tier's
// greedy anchor-pool sweep (MBC-Heu, Algorithm 3 of the paper, local
// search off: per anchor a, O(Σ_{x ∈ N(a)} d(x)) ⊆ O(m) time plus a dense
// network over the first pick's neighbourhood, see mbc_heu.h) instead of
// an exact search. Its clique lower-bounds the exact MBC answer, and the
// last tau at which it still finds a clique lower-bounds beta(G) — the
// same well-defined "cheap answer" structure the heuristic-tier
// literature (Ordozgoiti et al., arXiv:2002.00775) builds on. A degraded
// response is always tagged "degraded": true on the wire and cached under
// a separate exactness tag, so it can never masquerade as an exact one.
#ifndef MBC_SERVICE_DEGRADED_H_
#define MBC_SERVICE_DEGRADED_H_

#include <cstdint>

#include "src/graph/signed_graph.h"
#include "src/service/query.h"

namespace mbc {

/// Computes the greedy lower-bound answer for one query. kMbc (and
/// kMbcHeu / kMbcTol, whose degraded answer is the same greedy clique —
/// a balanced clique frustrates no edge, so it is feasible under every
/// tolerance budget): the best anchored greedy clique satisfying tau
/// (possibly empty). kPf / kGmbc: one sweep answers every tau = 0, 1, ...
/// up to the first one without a clique; beta is the last tau with a
/// clique, and kGmbc records the clique size at every tau in [0, beta].
/// Deterministic for a given graph; O(m) time per anchor for a handful of
/// anchors, once per query whatever the kind.
QueryResult ComputeDegradedResult(const SignedGraph& graph, QueryKind kind,
                                  uint32_t tau);

}  // namespace mbc

#endif  // MBC_SERVICE_DEGRADED_H_
