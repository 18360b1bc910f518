// Copyright 2026 The balanced-clique Authors.
//
// Exact solvers for the *other* signed-clique notions the paper's Related
// Work (Section VII) contrasts with balanced cliques:
//
//   * k-balanced trusted clique (Hao et al. [34]) — a clique whose edges
//     are all positive; maximizing it is the classic maximum clique
//     problem on the positive subgraph.
//   * (α, k)-clique (Li et al. [31]) — a clique in which every vertex has
//     at most k negative neighbors and at least α·k positive neighbors
//     inside the clique (the structural-balance constraint is ignored).
//
// Implemented with the same dense-bitset ego-network machinery as MBC*.
// These exist for comparison/demo purposes (the paper's point is that
// neither notion solves the balanced-clique problem), so the solvers are
// straightforward exact branch-and-bounds, not heavily tuned.
#ifndef MBC_RELATED_RELATED_CLIQUES_H_
#define MBC_RELATED_RELATED_CLIQUES_H_

#include <cstdint>
#include <vector>

#include "src/common/execution.h"
#include "src/common/types.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// Maximum all-positive clique ("trusted clique" [34]). Returns the
/// vertex set (empty only for empty graphs). On an interrupt of `exec`
/// (optional) the best clique found so far is returned; query
/// exec->reason() to distinguish exact from best-effort.
std::vector<VertexId> MaxTrustedClique(const SignedGraph& graph,
                                       ExecutionContext* exec = nullptr);

struct AlphaKCliqueOptions {
  /// Every member may have at most `k` negative neighbors inside the
  /// clique...
  uint32_t k = 1;
  /// ...and must have at least `alpha * k` positive neighbors inside.
  double alpha = 1.0;
  /// Shared execution governor. Owned by the caller; may be null
  /// (unlimited run).
  ExecutionContext* exec = nullptr;
};

struct AlphaKCliqueResult {
  std::vector<VertexId> clique;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

/// Maximum (α, k)-clique [31].
AlphaKCliqueResult MaxAlphaKClique(const SignedGraph& graph,
                                   const AlphaKCliqueOptions& options = {});

/// Validates the (α, k) conditions for a vertex set (test/demo helper).
bool IsAlphaKClique(const SignedGraph& graph,
                    const std::vector<VertexId>& clique, double alpha,
                    uint32_t k);

}  // namespace mbc

#endif  // MBC_RELATED_RELATED_CLIQUES_H_
