// Copyright 2026 The balanced-clique Authors.
//
// PF-E (Section IV-A): enumeration-based polarization factor baseline.
// Enumerates maximal balanced cliques with MBCEnum [13] and reports the
// largest min side seen (β is always achieved by some maximal clique).
#ifndef MBC_PF_PF_E_H_
#define MBC_PF_PF_E_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct PfEOptions {
  /// Shared execution governor; on an interrupt the result is a lower
  /// bound. Owned by the caller; may be null (unlimited run).
  ExecutionContext* exec = nullptr;
};

struct PfEResult {
  uint32_t beta = 0;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
  uint64_t cliques_enumerated = 0;
};

PfEResult PolarizationFactorEnum(const SignedGraph& graph,
                                 const PfEOptions& options = {});

}  // namespace mbc

#endif  // MBC_PF_PF_E_H_
