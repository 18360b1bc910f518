// Copyright 2026 The balanced-clique Authors.
//
// MBC (Algorithm 1): the enumeration-based baseline, an adaptation of the
// maximal balanced clique enumerator MBCEnum [13] that tracks the largest
// clique instead of reporting maximal ones. Exponential; used as the
// paper's comparison baseline, so it supports a wall-clock budget.
#ifndef MBC_CORE_MBC_BASELINE_H_
#define MBC_CORE_MBC_BASELINE_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct MbcBaselineOptions {
  /// Apply the O(m^1.5) EdgeReduction of [13] (Line 1). The paper's
  /// MBC-noER variant sets this to false.
  bool apply_edge_reduction = true;

  /// Shared execution governor. On an interrupt the best clique found so
  /// far is returned with `interrupt_reason` set. Owned by the caller; may
  /// be null (run to completion).
  ExecutionContext* exec = nullptr;
};

struct MbcBaselineResult {
  BalancedClique clique;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
  /// Number of Enum(...) invocations.
  uint64_t recursive_calls = 0;
  double reduction_seconds = 0.0;
  double search_seconds = 0.0;
};

/// Computes the maximum balanced clique of `graph` under threshold `tau`
/// by exhaustive branch enumeration with size-based pruning only.
MbcBaselineResult MaxBalancedCliqueBaseline(
    const SignedGraph& graph, uint32_t tau,
    const MbcBaselineOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_BASELINE_H_
