// Copyright 2026 The balanced-clique Authors.
//
// The heuristic tier: fast lower bounds for the maximum balanced clique.
//
// MBC-Heu (Algorithm 3) is a greedy that grows a balanced clique inside
// the dichromatic network g_a of an anchor vertex a, alternating sides to
// keep |C_L| and |C_R| balanced. Only the first pick reads all of g_a; the
// greedy-only configuration counts that pick's degrees on the CSR lists
// and builds dense rows over the pick's neighbourhood alone, while local
// search builds the whole g_a (costs below). MbcHeuristicSearch is its one
// implementation: it runs the greedy from every vertex of an anchor pool
// (the paper's degree/polar anchors plus the densest vertices of the
// degeneracy order) on one hoisted network and arena, then optionally
// refines each anchor's clique with a seeded bitset local search
// (drop-and-regrow swap/add moves over the two sides of the network;
// grounded in Ordozgoiti et al., arXiv:2002.00775). MbcHeuristic is the
// greedy-only sweep over the degree/polar anchors, which seeds the lower
// bound of MBC* (Line 2 of Algorithm 2) and PF* (Line 1 of Algorithm 4);
// the service's brownout tier runs the same sweep per tau. The greedy
// never reads tau: tau only filters each anchor's clique. The result is a
// valid balanced clique — a lower bound the exact solvers warm-start
// from — never a certificate of optimality.
#ifndef MBC_CORE_MBC_HEU_H_
#define MBC_CORE_MBC_HEU_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// The greedy-only sweep: MbcHeuristicSearch with no local search and no
/// degeneracy anchors, i.e. the greedy anchored at the vertex with the
/// largest min{d+(u), d-(u)} (the paper's implementation choice) and at
/// the maxima of d+, d-, d and the polar-core number. Returns the largest
/// greedy clique satisfying τ, or an empty clique if none does. Per anchor
/// a: O(Σ_{x ∈ N(a)} d(x)) ⊆ O(m) time to count member degrees in g_a, then
/// a dense network over the first pick p and its g_a-neighbours, k_p ≤
/// d(p) + 1 members in Θ(k_p²) bits. (The local-search configuration of
/// MbcHeuristicSearch builds the whole g_a instead: Θ(k²) bits, k = d(a) +
/// 1.) `exec` is the optional execution governor; nullptr runs under
/// a local, unlimited one (which fault injection still reaches). The
/// first anchor always runs to completion, so an interrupted call still
/// returns that anchor's clique when it satisfies τ.
BalancedClique MbcHeuristic(const SignedGraph& graph, uint32_t tau,
                            ExecutionContext* exec = nullptr);

/// Knobs for the heuristic-tier solver. The defaults are what the query
/// service's `mbc_heu` kind runs, so they are part of the cache contract:
/// equal (graph, tau, seed, iterations) inputs yield byte-identical
/// results.
struct MbcHeuOptions {
  /// Seed of the local-search move stream. Each anchor derives its own
  /// substream, so runs are deterministic per (seed, graph, tau) and the
  /// iteration sequence of one anchor is a prefix of any longer run.
  uint64_t seed = 0;

  /// Drop-and-regrow rounds per anchor. 0 = pure greedy (the anchor-pool
  /// sweep only). Monotone: with a fixed seed, more iterations never
  /// return a smaller clique.
  uint32_t local_search_iterations = 24;

  /// Degeneracy anchors (the densest tail of the peeling order) tried in
  /// addition to the five degree/polar anchors of MbcHeuristic. The
  /// defaults of this struct are also the defaults of `mbc_cli heu`.
  uint32_t degeneracy_anchors = 4;

  /// Shared execution governor. Owned by the caller; may be null
  /// (unlimited run). On interrupt the best clique found so far is
  /// returned (valid, possibly smaller than a full run's).
  ExecutionContext* exec = nullptr;
};

struct MbcHeuStats {
  /// Best clique size after the greedy anchor sweep, before local search.
  size_t greedy_size = 0;
  /// Local-search rounds actually executed (across all anchors).
  uint64_t ls_iterations = 0;
  /// Rounds that improved the incumbent of their anchor.
  uint64_t ls_improvements = 0;
  /// Why the run stopped early (kNone = ran to completion).
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

struct MbcHeuResult {
  /// The best balanced clique found; empty if none satisfies τ. Always
  /// canonicalized, always verified-balanced by construction.
  BalancedClique clique;
  MbcHeuStats stats;
};

/// The heuristic-tier solver: greedy anchor pool + seeded local search.
/// Deterministic for fixed (graph, tau, options.seed, iterations),
/// whatever thread calls it. The first anchor's greedy always completes,
/// so an expired or cancelled context still yields a valid lower bound.
MbcHeuResult MbcHeuristicSearch(const SignedGraph& graph, uint32_t tau,
                                const MbcHeuOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_HEU_H_
