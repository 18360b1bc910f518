// Copyright 2026 The balanced-clique Authors.
//
// DCC (Algorithm 4, procedure DCC): dichromatic clique *checking*. Unlike
// MDC it does not maximize — it only decides whether the dichromatic graph
// contains a clique with at least τ_L L-vertices and τ_R R-vertices, and
// can therefore stop as soon as both thresholds reach zero.
//
// Like MdcSolver, the kernel runs on a SearchArena (depth-indexed bitset
// frames + incremental candidate degrees) and is allocation-free after
// warm-up; the pre-arena kernel was removed after one release of baking.
#ifndef MBC_PF_DCC_SOLVER_H_
#define MBC_PF_DCC_SOLVER_H_

#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/execution.h"
#include "src/dichromatic/dichromatic_graph.h"

namespace mbc {

/// Dichromatic-clique-checking search; reusable across networks (Rebind).
class DccSolver {
 public:
  /// A solver with no graph bound yet; call Rebind before Check.
  DccSolver() = default;
  /// `graph` must outlive the solver (or be superseded via Rebind).
  explicit DccSolver(const DichromaticGraph& graph) : graph_(&graph) {}

  /// Re-points the solver at another network, keeping all scratch storage.
  void Rebind(const DichromaticGraph& graph) { graph_ = &graph; }

  /// Returns true iff `candidates` contains a clique with ≥ tau_l
  /// L-vertices and ≥ tau_r R-vertices (negative thresholds count as 0).
  /// If `witness` is non-null and the answer is yes, stores one such clique
  /// (local ids; exactly the greedily grown one, so its side counts equal
  /// the clamped thresholds).
  bool Check(const Bitset& candidates, int32_t tau_l, int32_t tau_r,
             std::vector<uint32_t>* witness = nullptr);

  /// Number of DCC branch invocations in the last Check call.
  uint64_t branches() const { return branches_; }

  /// Scratch bytes currently held by the solver's arena.
  size_t ArenaMemoryBytes() const { return arena_.MemoryBytes(); }

  /// Optional execution governor (see MdcSolver::SetExecution). On an
  /// interrupt Check returns false conservatively and timed_out() reports
  /// it. `exec` must outlive the solver; nullptr disables governance.
  void SetExecution(ExecutionContext* exec) { exec_ = exec; }

  bool timed_out() const { return interrupted_; }
  /// Why the last Check call stopped early (kNone if it ran to completion).
  InterruptReason interrupt_reason() const {
    return interrupted_ ? exec_->reason() : InterruptReason::kNone;
  }

 private:
  /// `cand_count` must equal |frame(depth).cand| (threaded through the
  /// recursion via the fused AssignAndCount, as in MdcSolver).
  bool RecurseArena(size_t depth, uint32_t tau_l, uint32_t tau_r,
                    size_t cand_count);
  /// `twice_edges` must hold Σ_v DegreeWithin(v, cand) — the kernel has
  /// it as a byproduct of its degree sweep.
  bool TryCliqueShortcut(const Bitset& cand, size_t left_avail,
                         size_t right_avail, uint32_t tau_l, uint32_t tau_r,
                         uint64_t twice_edges);

  const DichromaticGraph* graph_ = nullptr;
  SearchArena arena_;
  std::vector<uint32_t> current_;
  std::vector<uint32_t>* witness_ = nullptr;
  uint64_t branches_ = 0;
  ExecutionContext* exec_ = nullptr;
  bool interrupted_ = false;
};

}  // namespace mbc

#endif  // MBC_PF_DCC_SOLVER_H_
