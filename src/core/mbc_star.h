// Copyright 2026 The balanced-clique Authors.
//
// MBC* (Algorithm 2): the paper's main contribution. Transforms the maximum
// balanced clique problem over a signed graph G into a series of maximum
// dichromatic clique (MDC) problems over the dichromatic networks g_u of
// the vertices, processed in reverse degeneracy order. Each network both
// removes edge signs and sparsifies the edge set, which makes the classic
// degree-based pruning and coloring upper bound effective.
//
// One engine (mbc_star.cc) has two entry points: MaxBalancedCliqueStar
// below runs the vertex loop on the calling thread, and
// ParallelMaxBalancedCliqueStar (mbc_parallel.h) schedules the same
// per-vertex searches over work-stealing workers. Both share the
// preamble, the per-network pruning and the incumbent.
#ifndef MBC_CORE_MBC_STAR_H_
#define MBC_CORE_MBC_STAR_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

class MdcSolver;

/// Knobs for MBC* (the defaults reproduce the paper's MBC* exactly).
struct MbcStarOptions {
  /// MBC*-withER variant: also run the O(m^1.5) EdgeReduction of [13]
  /// before searching. The paper shows this *hurts* MBC*.
  bool apply_edge_reduction = false;

  /// Seed the search with MBC-Heu (Line 2). Disable only in tests.
  bool run_heuristic = true;

  /// A known valid balanced clique used as the initial incumbent (gMBC*'s
  /// computation sharing, Section V). Must satisfy the constraint τ on the
  /// same graph. Owned by the caller; may be null.
  const BalancedClique* initial_clique = nullptr;

  /// Stop at the first clique satisfying τ instead of maximizing (PF-BS's
  /// optimization, Section IV-B).
  bool existence_only = false;

  /// Shared execution governor (deadline, cancellation, memory budget,
  /// fault injection). On an interrupt the best clique found so far is
  /// returned with stats.interrupt_reason set; it is valid but possibly
  /// not maximum. Owned by the caller; may be null, in which case the run
  /// is unlimited (the paper's setting).
  ExecutionContext* exec = nullptr;

  /// Ablation switches for the two classic prunings (Lemmas 1 and 2);
  /// both default on. Turning either off keeps the algorithm correct but
  /// quantifies that bound's contribution (bench_ablation_pruning).
  bool use_core_pruning = true;
  bool use_coloring_bound = true;

  /// Caller-owned MDC solver to run the search through instead of a
  /// run-local one. The query service hands each worker thread its own
  /// solver so the arena's warm-up amortizes across requests; must not be
  /// shared between concurrent runs. May be null.
  MdcSolver* shared_solver = nullptr;
};

/// Counters surfaced for the Table IV experiment.
struct MbcStarStats {
  /// Size of the clique found by MBC-Heu (0 if none / disabled).
  size_t heuristic_size = 0;
  /// Number of networks that survived pruning and were handed to MDC.
  uint64_t num_mdc_instances = 0;
  /// Number of dichromatic networks built.
  uint64_t num_networks_built = 0;
  /// Total MDC branch-and-bound invocations.
  uint64_t mdc_branches = 0;
  /// Average SR1 = 1 - |E(g_u)| / |E(G_u)| over MDC instances (edges
  /// incident to u excluded, the paper's convention). -1 when no instance.
  double avg_sr1 = -1.0;
  /// Average SR2 = 1 - |E(g)| / |E(G_u)| after the additional core
  /// reduction. -1 when no instance.
  double avg_sr2 = -1.0;
  /// Wall-clock seconds in the reduction / heuristic / search phases.
  double reduction_seconds = 0.0;
  double heuristic_seconds = 0.0;
  double search_seconds = 0.0;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

struct MbcStarResult {
  /// The maximum balanced clique satisfying τ; empty if none exists.
  BalancedClique clique;
  MbcStarStats stats;
};

/// Computes the maximum balanced clique of `graph` under threshold `tau`.
MbcStarResult MaxBalancedCliqueStar(const SignedGraph& graph, uint32_t tau,
                                    const MbcStarOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_STAR_H_
