// Copyright 2026 The balanced-clique Authors.
//
// MDC (Algorithm 2, procedure MDC): branch-and-bound maximum dichromatic
// clique search on a dichromatic network. Classic maximum-clique machinery
// (degree-based pruning via k-core peeling, greedy-coloring upper bound,
// minimum-degree branching) applies because the network is unsigned; the
// two side thresholds τ_L / τ_R are the only signed-world residue.
//
// The kernel runs on a SearchArena (depth-indexed bitset frames +
// incrementally maintained candidate degrees) and performs zero heap
// allocations once the arena has warmed up to the largest network /
// recursion depth it has seen; see docs/perf.md. The pre-arena kernel
// was removed after one release of baking; the differential tests now
// compare against the brute-force oracle.
#ifndef MBC_CORE_MDC_SOLVER_H_
#define MBC_CORE_MDC_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/execution.h"
#include "src/dichromatic/dichromatic_graph.h"

namespace mbc {

/// Kernel knobs (defaults reproduce the paper's MDC). `use_core_pruning`
/// and `use_coloring_bound` are the ablation switches used by
/// bench_ablation_pruning.
struct MdcOptions {
  bool use_core_pruning = true;
  bool use_coloring_bound = true;
};

/// Maximum-dichromatic-clique search. One solver instance is meant to be
/// reused across the many dichromatic networks of an MBC*/PF* run
/// (Rebind per network); its arena and result buffers then stop touching
/// the heap after the first few networks.
class MdcSolver {
 public:
  /// A solver with no graph bound yet; call Rebind before Solve.
  MdcSolver() = default;
  /// `graph` must outlive the solver (or be superseded via Rebind).
  explicit MdcSolver(const DichromaticGraph& graph) : graph_(&graph) {}

  /// Re-points the solver at another network, keeping all scratch storage.
  void Rebind(const DichromaticGraph& graph) { graph_ = &graph; }

  /// Searches for the largest clique C' ⊆ candidates such that
  /// |seed ∪ C'| > lower_bound, |C' ∩ V_L| ≥ tau_l and |C' ∩ V_R| ≥ tau_r
  /// (thresholds may be negative, meaning already satisfied).
  ///
  /// `seed` is the clique grown so far (typically {u}); candidates must all
  /// be adjacent to every seed vertex. On success, returns true and stores
  /// seed ∪ C' in *best (local vertex ids); otherwise returns false and
  /// leaves *best untouched.
  ///
  /// `existence_only`: stop at the first clique that satisfies the
  /// thresholds (used by the PF-BS optimization of Section IV-B).
  bool Solve(const std::vector<uint32_t>& seed, const Bitset& candidates,
             int32_t tau_l, int32_t tau_r, size_t lower_bound,
             std::vector<uint32_t>* best, bool existence_only = false);

  /// Number of MDC branch invocations in the last Solve call.
  uint64_t branches() const { return branches_; }

  /// Optional execution governor (deadline / cancellation / memory budget
  /// / fault injection; the paper's algorithm has none). When `exec`
  /// reports an interrupt, the search unwinds; the result so far is still
  /// a valid (possibly non-optimal) clique. `exec` must outlive the
  /// solver; nullptr disables governance.
  void SetExecution(ExecutionContext* exec) { exec_ = exec; }
  /// Why the last Solve call stopped early (kNone if it ran to completion).
  InterruptReason interrupt_reason() const {
    return interrupted_ ? exec_->reason() : InterruptReason::kNone;
  }

  /// Cross-thread incumbent sharing (the work-stealing parallel driver).
  /// `bound` is the global best clique size: every node-entry refresh
  /// raises this solver's pruning bound to it, so late subproblems prune
  /// against the fleet-wide best rather than their thread-local one.
  /// `offer` receives every feasible clique (seed ∪ C', local ids) whose
  /// size is >= the pruning bound at the time it is found.
  ///
  /// Setting a shared incumbent also switches the kernel to tie-preserving
  /// pruning: no bound may discard a clique that merely *equals* the
  /// incumbent, so every maximum clique is offered in every run regardless
  /// of thread schedule — the publisher's canonical tie-break then makes
  /// the returned witness deterministic across thread counts. In this mode
  /// the caller must consume results via `offer`; Solve's return value
  /// only says whether any offer fired. `bound` and `offer` must outlive
  /// the solver.
  void SetSharedIncumbent(
      const std::atomic<size_t>* bound,
      std::function<void(const std::vector<uint32_t>&)> offer) {
    shared_bound_ = bound;
    offer_ = std::move(offer);
  }

  void SetOptions(const MdcOptions& options) { options_ = options; }

  /// Scratch bytes currently held by the solver's arena.
  size_t ArenaMemoryBytes() const { return arena_.MemoryBytes(); }

 private:
  /// `cand_count` must equal |frame(depth).cand| — the population is
  /// threaded through the recursion (fused AssignAndCount at the call
  /// site) so the kernel never re-counts a candidate set it built.
  void RecurseArena(size_t depth, int32_t tau_l, int32_t tau_r,
                    size_t cand_count);
  /// Records current_ ∪ cand as the new incumbent (cand is a clique).
  void RecordCliqueShortcut(const Bitset& cand);

  const DichromaticGraph* graph_ = nullptr;
  SearchArena arena_;
  /// Non-null while a shared incumbent is installed; implies tie-preserving
  /// pruning (see SetSharedIncumbent).
  const std::atomic<size_t>* shared_bound_ = nullptr;
  std::function<void(const std::vector<uint32_t>&)> offer_;
  std::vector<uint32_t> current_;
  std::vector<uint32_t> best_;
  size_t best_size_ = 0;
  bool found_ = false;
  bool existence_only_ = false;
  bool stop_ = false;
  uint64_t branches_ = 0;
  ExecutionContext* exec_ = nullptr;
  bool interrupted_ = false;
  MdcOptions options_;
};

}  // namespace mbc

#endif  // MBC_CORE_MDC_SOLVER_H_
