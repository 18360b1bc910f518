// Copyright 2026 The balanced-clique Authors.
//
// Parallel MBC*: a multi-threaded variant of Algorithm 2 (an extension —
// the paper's algorithm is sequential), and the second entry point of the
// MBC* engine in mbc_star.cc. It shares MBC*'s preamble, per-network
// pruning and incumbent; the per-vertex dichromatic-network searches are
// independent, so it schedules them with per-worker Chase–Lev deques
// (work stealing), splits heavy ego networks at the top-level MDC
// branching frontier into per-branch subtasks, and threads the shared
// atomic incumbent through every MdcSolver so late subproblems prune
// against the fleet-wide best.
//
// Determinism: the result is byte-identical across thread counts and
// schedules. Workers run the MDC kernel in tie-preserving mode (no bound
// discards a clique merely equal to the incumbent), so every maximum
// clique is offered to the publisher in every run, and the publisher keeps
// the canonically lexicographically-smallest witness. The returned clique
// is therefore always the lex-min maximum balanced clique — the same one,
// whether solved by 1 thread or 8.
#ifndef MBC_CORE_MBC_PARALLEL_H_
#define MBC_CORE_MBC_PARALLEL_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/core/mbc_star.h"

namespace mbc {

struct ParallelMbcOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  uint32_t num_threads = 0;
  /// Seed the search with MBC-Heu (as in MBC*).
  bool run_heuristic = true;
  /// A known valid balanced clique (original vertex ids, satisfies τ) used
  /// as the initial shared incumbent — the heuristic tier's warm start. A
  /// better incumbent means more pruning from the first task onward.
  /// Witness-neutral: the tie-preserving kernel still offers every maximum
  /// clique, so the published result stays the lex-min optimum whatever
  /// the seed. Owned by the caller; may be null.
  const BalancedClique* initial_clique = nullptr;
  /// Shared execution governor. All workers probe the same context, so
  /// cancelling it (from any thread) stops the whole search; the best
  /// clique found so far is returned. Owned by the caller; may be null
  /// (unlimited run).
  ExecutionContext* exec = nullptr;
  /// Ego networks whose pruned candidate count reaches this many vertices
  /// are split at the top-level MDC branching frontier into independent
  /// per-branch subtasks (each carrying its candidate bitset cloned from a
  /// SearchArena snapshot), so one heavy ego network no longer serializes
  /// the tail. 0 = the built-in default (96). Tests and the scaling bench
  /// pin small values to force splits on small instances. Splitting never
  /// changes the result, only the schedule.
  uint32_t split_threshold = 0;
};

struct ParallelMbcResult {
  /// The lex-min maximum balanced clique (deterministic across runs and
  /// thread counts; see the file comment).
  BalancedClique clique;
  /// Threads that executed search tasks. Reported uniformly: the
  /// degenerate/empty-work path and the pool path use the same clamp, so
  /// they cannot disagree.
  uint32_t threads_used = 0;
  uint64_t num_networks_built = 0;
  uint64_t num_mdc_instances = 0;
  /// Work-stealing scheduler counters (see docs/perf.md).
  uint64_t num_steals = 0;
  uint64_t num_splits = 0;
  /// Times the published global incumbent changed (size growth or a
  /// canonical tie-break replacement), beyond the heuristic seed.
  uint64_t num_incumbent_updates = 0;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

/// Computes the maximum balanced clique of `graph` under threshold `tau`
/// using multiple threads. Exact when not interrupted: always returns the
/// lex-min optimum.
ParallelMbcResult ParallelMaxBalancedCliqueStar(
    const SignedGraph& graph, uint32_t tau,
    const ParallelMbcOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_PARALLEL_H_
