// Copyright 2026 The balanced-clique Authors.
//
// k-core reduction and degeneracy (smallest-first) ordering, computed over
// the unsigned skeleton of a graph (edge signs ignored), as used at Lines
// 3-4 of Algorithm 2 in the paper. Implemented with the O(n + m) bin-sort
// peeling of Matula & Beck [29].
#ifndef MBC_GRAPH_CORES_H_
#define MBC_GRAPH_CORES_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// Result of a degeneracy decomposition.
struct DegeneracyResult {
  /// Vertices in peeling (smallest-first) order; the paper processes them in
  /// reverse. Vertices removed by an initial k-core filter still appear.
  std::vector<VertexId> order;
  /// rank[v] = position of v in `order`. "v ranks higher than u" in the
  /// paper's sense means rank[v] > rank[u].
  std::vector<uint32_t> rank;
  /// Core number of each vertex.
  std::vector<uint32_t> core_number;
  /// Degeneracy of the graph: max over core numbers (0 for empty graphs).
  uint32_t degeneracy = 0;
};

/// Degeneracy decomposition of `graph`'s unsigned skeleton.
DegeneracyResult DegeneracyDecompose(const SignedGraph& graph);

/// Alive-mask of the k-core (unsigned skeleton): alive[v] is true iff v
/// survives iteratively removing vertices of degree < k.
std::vector<uint8_t> KCoreMask(const SignedGraph& graph, uint32_t k);

}  // namespace mbc

#endif  // MBC_GRAPH_CORES_H_
