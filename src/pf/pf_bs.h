// Copyright 2026 The balanced-clique Authors.
//
// PF-BS (Section IV-B): binary search for β(G), invoking MBC* as a black
// box in existence-only mode for each probed threshold.
#ifndef MBC_PF_PF_BS_H_
#define MBC_PF_PF_BS_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct PfBsOptions {
  /// Shared execution governor. Owned by the caller; may be null
  /// (unlimited run).
  ExecutionContext* exec = nullptr;
};

struct PfBsResult {
  uint32_t beta = 0;
  /// Number of MBC* invocations performed by the binary search.
  uint32_t num_probes = 0;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  /// On an interrupt `beta` is only a valid lower bound (lo is raised
  /// exclusively on confirmed existence).
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

/// Binary searches β(G) in [0, max_v min{d+(v)+1, d-(v)}].
PfBsResult PolarizationFactorBinarySearch(const SignedGraph& graph,
                                          const PfBsOptions& options = {});

}  // namespace mbc

#endif  // MBC_PF_PF_BS_H_
