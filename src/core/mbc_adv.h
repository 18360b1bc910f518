// Copyright 2026 The balanced-clique Authors.
//
// MBC-Adv: the ablation baseline of Figure 8. It keeps the global framework
// of MBC* (vertex reduction, heuristic seed, |C*|-core, reverse degeneracy
// order, per-vertex ego networks) but does NOT apply the MDC transformation:
// ego networks keep their signs and all their (possibly conflicting) edges,
// and the degree-based pruning and coloring upper bound are computed on the
// unsigned skeleton obtained by simply discarding edge signs. Isolates the
// benefit of the dichromatic-network transformation.
#ifndef MBC_CORE_MBC_ADV_H_
#define MBC_CORE_MBC_ADV_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct MbcAdvOptions {
  /// Seed with MBC-Heu (disable to expose pure search behaviour, e.g. in
  /// the Figure 8 transformation comparison).
  bool run_heuristic = true;
  /// Shared execution governor; on an interrupt the best clique found so
  /// far is returned. Owned by the caller; may be null (unlimited run).
  ExecutionContext* exec = nullptr;
};

struct MbcAdvResult {
  BalancedClique clique;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
  uint64_t num_networks_built = 0;
  uint64_t branches = 0;
};

/// Computes the maximum balanced clique under threshold `tau` without the
/// dichromatic transformation (signs kept; bounds sign-oblivious).
MbcAdvResult MaxBalancedCliqueAdv(const SignedGraph& graph, uint32_t tau,
                                  const MbcAdvOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_ADV_H_
