// Copyright 2026 The balanced-clique Authors.
//
// Polarization decomposition (Algorithm 5, PDecompose). The k-polar-core of
// a signed graph is the maximal subgraph in which every vertex u satisfies
// min{d+(u) + 1, d-(u)} ≥ k; the polar-core number pn(u) is the largest k
// whose polar-core contains u. Lemma 5: pn(u) upper-bounds γ(g_u), the best
// threshold achievable by any dichromatic clique in u's network, which is
// what makes the polarization order an effective processing order for PF*.
#ifndef MBC_PF_PDECOMPOSE_H_
#define MBC_PF_PDECOMPOSE_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct PolarDecomposition {
  /// Vertices in non-decreasing polar-core number (peeling) order; PF*
  /// processes them in reverse.
  std::vector<VertexId> order;
  /// rank[v] = position of v in `order`.
  std::vector<uint32_t> rank;
  /// pn[v] = polar-core number of v.
  std::vector<uint32_t> polar_core_number;
  /// max over pn (an upper bound on β(G)).
  uint32_t max_polar_core = 0;
};

/// Runs PDecompose in O(n + m) using bin-sort peeling. A neighbour's
/// d+ + 1 (or d-) is decremented only while it exceeds pn(u) (the cap), so
/// the peel level never decreases and equals pn of the vertex peeled at
/// it. Removing a vertex zeroes both of its stored degrees, so both caps
/// also skip removed vertices.
PolarDecomposition PDecompose(const SignedGraph& graph);

/// Alive-mask of the k-polar-core (for tests and ad-hoc analyses).
std::vector<uint8_t> PolarCoreMask(const SignedGraph& graph, uint32_t k);

}  // namespace mbc

#endif  // MBC_PF_PDECOMPOSE_H_
