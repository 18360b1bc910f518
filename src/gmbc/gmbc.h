// Copyright 2026 The balanced-clique Authors.
//
// The generalized maximum balanced clique problem (Section V): report a
// maximum balanced clique for every 0 ≤ τ ≤ β(G), removing the need for a
// user-chosen threshold.
//
//   * gMBC  — invokes MBC* independently for τ = 0, 1, ... until empty.
//   * gMBC* — Algorithm 6: computes β(G) with PF*, then walks τ downward
//     from β(G), seeding each MBC* run with the solution for τ+1 (Lemma 6:
//     |C^τ| is non-increasing in τ, so C^{τ+1} is a valid incumbent).
#ifndef MBC_GMBC_GMBC_H_
#define MBC_GMBC_GMBC_H_

#include <cstdint>
#include <vector>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct GeneralizedMbcOptions {
  /// Shared execution governor spanning the whole sweep (PF* plus every
  /// per-τ MBC* run). On an interrupt, remaining thresholds inherit the
  /// best-known feasible clique (gMBC*) or stop the upward sweep (gMBC),
  /// and `interrupt_reason` is set: sizes are then lower bounds. Owned by
  /// the caller; may be null (unlimited, the paper's setting).
  ExecutionContext* exec = nullptr;
};

struct GeneralizedMbcResult {
  /// cliques[τ] = a maximum balanced clique for threshold τ, for
  /// τ = 0..β(G). Empty when the graph has no vertices.
  std::vector<BalancedClique> cliques;
  uint32_t beta = 0;
  /// Number of MBC* invocations (PF* not included).
  uint32_t num_mbc_calls = 0;
  /// Why the sweep stopped early (kNone = ran to completion, exact).
  InterruptReason interrupt_reason = InterruptReason::kNone;

  /// Number of *distinct* cliques in `cliques` (the |ℂ| column of the
  /// paper's Table V).
  size_t NumDistinctCliques() const;
};

/// gMBC: the straightforward upward loop.
GeneralizedMbcResult GeneralizedMbc(const SignedGraph& graph,
                                    const GeneralizedMbcOptions& options = {});

/// gMBC*: Algorithm 6 with computation sharing.
GeneralizedMbcResult GeneralizedMbcStar(
    const SignedGraph& graph, const GeneralizedMbcOptions& options = {});

}  // namespace mbc

#endif  // MBC_GMBC_GMBC_H_
