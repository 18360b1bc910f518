// Copyright 2026 The balanced-clique Authors.
#include "src/pf/dcc_solver.h"

#include "src/common/logging.h"
#include "src/dichromatic/reductions.h"

namespace mbc {

bool DccSolver::Check(const Bitset& candidates, int32_t tau_l, int32_t tau_r,
                      std::vector<uint32_t>* witness) {
  MBC_CHECK(graph_ != nullptr) << "DccSolver::Check without a bound graph";
  const size_t n = graph_->NumVertices();
  current_.clear();
  current_.reserve(n);
  witness_ = witness;
  branches_ = 0;
  interrupted_ = false;
  const uint32_t l = tau_l > 0 ? static_cast<uint32_t>(tau_l) : 0;
  const uint32_t r = tau_r > 0 ? static_cast<uint32_t>(tau_r) : 0;
  arena_.BindNetwork(n);
  SearchArena::Frame& root = arena_.FrameAt(0);
  root.cand.CopyFrom(candidates);
  return RecurseArena(0, l, r, candidates.Count());
}

// Clique shortcut: when the core is itself a clique with enough vertices
// on each side, any τ_L + τ_R of its members witness success.
bool DccSolver::TryCliqueShortcut(const Bitset& cand, size_t left_avail,
                                  size_t right_avail, uint32_t tau_l,
                                  uint32_t tau_r, uint64_t twice_edges) {
  if (left_avail < tau_l || right_avail < tau_r) return false;
  const size_t cand_count = left_avail + right_avail;
  if (twice_edges != static_cast<uint64_t>(cand_count) * (cand_count - 1)) {
    return false;
  }
  if (witness_ != nullptr) {
    *witness_ = current_;
    uint32_t need_l = tau_l;
    uint32_t need_r = tau_r;
    cand.ForEach([&](size_t v) {
      uint32_t& need =
          graph_->IsLeft(static_cast<uint32_t>(v)) ? need_l : need_r;
      if (need > 0) {
        witness_->push_back(static_cast<uint32_t>(v));
        --need;
      }
    });
  }
  return true;
}

// The allocation-free kernel; see MdcSolver::RecurseArena for the frame
// ownership, count-threading and degree-invariant conventions (identical
// here, with the side populations additionally maintained across the
// branch loop instead of recounted per drained vertex).
bool DccSolver::RecurseArena(size_t depth, uint32_t tau_l, uint32_t tau_r,
                             size_t cand_count) {
  ++branches_;
  if (interrupted_) return false;
  if (exec_ != nullptr && exec_->Checkpoint()) {
    interrupted_ = true;
    return false;
  }
  // Line 10: both demands met — the grown clique is a witness.
  if (tau_l == 0 && tau_r == 0) {
    if (witness_ != nullptr) *witness_ = current_;
    return true;
  }

  SearchArena::Frame& frame = arena_.FrameAt(depth);
  Bitset& cand = frame.cand;
  MBC_DCHECK_EQ(cand_count, cand.Count());

  // Line 11: reduce to the (τ_L, τ_R)-core. The peel doubles as this
  // node's degree sweep: it leaves DegreeWithin(v, cand) for every
  // survivor in `degrees`, which the clique shortcut sums to 2|E(cand)|
  // and the branch loop consumes as its min-degree seed.
  std::vector<uint32_t>& degrees = frame.degrees;
  TwoSidedCoreWithinInPlace(*graph_, &cand, static_cast<int32_t>(tau_l),
                            static_cast<int32_t>(tau_r), &arena_.pending(),
                            &cand_count, &degrees);
  if (cand_count == 0) return false;

  const size_t left_avail = cand.CountAnd(graph_->LeftMask());
  const size_t right_avail = cand_count - left_avail;

  uint64_t twice_edges = 0;
  cand.ForEach([&](size_t v) { twice_edges += degrees[v]; });
  if (TryCliqueShortcut(cand, left_avail, right_avail, tau_l, tau_r,
                        twice_edges)) {
    return true;
  }

  // Lines 12-14: restrict branching to the side that still needs vertices.
  Bitset& pool = frame.pool;
  pool.CopyFrom(cand);
  size_t pool_count = cand_count;
  if (tau_l > 0 && tau_r == 0) {
    pool &= graph_->LeftMask();
    pool_count = left_avail;
  } else if (tau_l == 0 && tau_r > 0) {
    pool.AndNot(graph_->LeftMask());
    pool_count = right_avail;
  }

  Bitset& remaining = frame.remaining;
  remaining.CopyFrom(cand);
  // Side populations of `remaining`, maintained as vertices drain out of
  // the branch loop (the old kernel recounted both sides per iteration).
  size_t left_remaining = left_avail;
  size_t right_remaining = right_avail;

  // `degrees` (computed above, within `cand` == initial `remaining`) is
  // maintained incrementally from here (the same invariant as
  // MdcSolver::RecurseArena).

  // Lines 15-20: branch on minimum-degree vertices. Re-check feasibility
  // as the pool drains — once a side cannot reach its demand, no further
  // branch at this node can succeed.
  while (pool_count > 0) {
    if (left_remaining < tau_l || right_remaining < tau_r) return false;
    uint32_t v = 0;
    uint32_t v_degree = 0;
    bool v_found = false;
    pool.ForEach([&](size_t w) {
      const uint32_t degree = degrees[w];
      if (!v_found || degree < v_degree) {
        v_found = true;
        v = static_cast<uint32_t>(w);
        v_degree = degree;
      }
    });

    const bool v_left = graph_->IsLeft(v);
    current_.push_back(v);
    SearchArena::Frame& child = arena_.FrameAt(depth + 1);
    const size_t child_count =
        child.cand.AssignAndCount(graph_->AdjacencyOf(v), remaining);
    const bool ok =
        RecurseArena(depth + 1, v_left && tau_l > 0 ? tau_l - 1 : tau_l,
                     !v_left && tau_r > 0 ? tau_r - 1 : tau_r, child_count);
    if (ok) return true;
    current_.pop_back();

    pool.Reset(v);
    --pool_count;
    remaining.Reset(v);
    if (v_left) {
      --left_remaining;
    } else {
      --right_remaining;
    }
    // Restore the degree invariant after v leaves `remaining`.
    graph_->AdjacencyOf(v).ForEachAnd(
        remaining, [&degrees](size_t w) { --degrees[w]; });
  }
  return false;
}

}  // namespace mbc
