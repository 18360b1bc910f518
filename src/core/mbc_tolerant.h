// Copyright 2026 The balanced-clique Authors.
//
// Tolerance relaxation of the maximum balanced clique (Chen et al.,
// arXiv:2402.05006): find the maximum clique of the *underlying* unsigned
// graph together with a side assignment (C_L, C_R) such that at most k
// edges are frustrated — a negative edge inside a side, or a positive edge
// across the sides — and both sides satisfy the threshold τ. k = 0 is
// exactly the structural balanced clique problem, and the solver then
// delegates to MBC* (byte-identical witness); k > 0 admits almost-balanced
// communities the exact problem rejects.
//
// The kernel is an MDC-style branch-and-bound over reverse-degeneracy ego
// networks with the frustration budget threaded through every node:
// assigning a vertex to a side costs the frustrated edges it closes
// against the current members, and costs only grow down the tree. The
// incumbent (seeded by an exact MBC* run — every balanced clique is
// feasible at any budget) drives an iterative in-network degree peel, a
// cheapest-first knapsack over candidate min-costs, per-side knapsacks
// that prune nodes whose left or right side can no longer reach τ (the
// decisive bound in sign-skewed dense cores), and a greedy-coloring bound
// over the zero-cost candidates' compatibility graph (the decisive bound
// in mixed-sign dense cores).
#ifndef MBC_CORE_MBC_TOLERANT_H_
#define MBC_CORE_MBC_TOLERANT_H_

#include <cstdint>
#include <optional>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct MbcTolerantOptions {
  /// Route tolerance = 0 through MaxBalancedCliqueStar instead of the
  /// budgeted kernel. On by default: MBC* carries the stronger
  /// sign-aware prunings, and the delegated witness is byte-identical to
  /// an exact MBC* run. Tests disable this to differential-test the
  /// budgeted kernel at k = 0.
  bool delegate_exact = true;

  /// A known feasible solution (≤ `tolerance` frustrated edges, satisfies
  /// τ) used as the initial incumbent — the heuristic tier's warm start.
  /// Owned by the caller; may be null.
  const BalancedClique* initial_clique = nullptr;

  /// When no initial_clique is supplied, seed the incumbent by running
  /// MBC* under the same governor: every balanced clique is
  /// tolerant-feasible at any budget (0 frustrated edges), and a tolerant
  /// clique only beats it by being strictly larger, so the exact optimum
  /// is both the natural incumbent and the tightest cheap bound. The
  /// incumbent drives the ego peel and the size bound; without one,
  /// power-law graphs explode the budgeted search even though MBC*
  /// finishes in milliseconds. Tests disable this to exercise the bare
  /// kernel.
  bool seed_exact = true;

  /// Shared execution governor. Owned by the caller; may be null
  /// (unlimited run).
  ExecutionContext* exec = nullptr;
};

struct MbcTolerantStats {
  /// Branch-and-bound node entries (delegated runs report MBC* branches).
  uint64_t branches = 0;
  /// Ego networks that survived pruning and were searched.
  uint64_t num_networks_built = 0;
  /// Why the run stopped early (kNone = ran to completion). On an
  /// interrupt the returned clique is still feasible but possibly not
  /// maximum.
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

struct MbcTolerantResult {
  /// The maximum clique with ≤ tolerance frustrated edges satisfying τ;
  /// empty if none exists. Always canonicalized.
  BalancedClique clique;
  /// Frustrated edges of `clique` under its returned side assignment.
  uint32_t frustrated_edges = 0;
  MbcTolerantStats stats;
};

/// Computes the maximum balanced-with-≤-tolerance-frustrated-edges clique
/// of `graph` under threshold `tau`. Deterministic for fixed inputs.
MbcTolerantResult MaxTolerantBalancedClique(const SignedGraph& graph,
                                            uint32_t tau, uint32_t tolerance,
                                            const MbcTolerantOptions& options =
                                                {});

/// Frustrated-edge count of `clique` under its stored side split: negative
/// edges inside a side plus positive edges across the sides. Returns
/// nullopt if the vertex set is not a clique of the underlying unsigned
/// graph (or repeats a vertex) — i.e. the clique is not tolerant-feasible
/// for any budget.
std::optional<uint32_t> CountFrustratedEdges(const SignedGraph& graph,
                                             const BalancedClique& clique);

}  // namespace mbc

#endif  // MBC_CORE_MBC_TOLERANT_H_
