// Copyright 2026 The balanced-clique Authors.
//
// MBCEnum [13]: enumeration of all *maximal* balanced cliques satisfying a
// polarization threshold τ. A two-sided adaptation of the Bron-Kerbosch
// algorithm [24]: candidate sets P_L / P_R hold vertices that can extend
// the respective side, exclusion sets X_L / X_R certify maximality.
//
// Used by the paper's case studies (Section VI-A), by the PF-E baseline,
// and by tests as an oracle for MBC* (the maximum balanced clique is the
// largest maximal one).
#ifndef MBC_CORE_MBC_ENUM_H_
#define MBC_CORE_MBC_ENUM_H_

#include <cstdint>
#include <functional>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct MbcEnumOptions {
  /// Apply VertexReduction + EdgeReduction of [13] first (both preserve
  /// every τ-satisfying maximal balanced clique).
  bool apply_reductions = true;

  /// Stop after reporting this many cliques (0 = unlimited).
  uint64_t max_cliques = 0;

  /// Shared execution governor. Owned by the caller; may be null
  /// (unlimited run).
  ExecutionContext* exec = nullptr;
};

struct MbcEnumStats {
  uint64_t num_reported = 0;
  /// True if the enumeration stopped early (max_cliques or interrupt).
  bool truncated = false;
  /// Why the run was interrupted (kNone also covers a max_cliques stop).
  InterruptReason interrupt_reason = InterruptReason::kNone;
  uint64_t recursive_calls = 0;
};

/// Invokes `callback` once per maximal balanced clique C with |C_L| ≥ τ and
/// |C_R| ≥ τ (vertex ids of `graph`; sides canonicalized). Each clique is
/// reported exactly once.
MbcEnumStats EnumerateMaximalBalancedCliques(
    const SignedGraph& graph, uint32_t tau,
    const std::function<void(const BalancedClique&)>& callback,
    const MbcEnumOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_ENUM_H_
