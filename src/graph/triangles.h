// Copyright 2026 The balanced-clique Authors.
//
// Per-edge signed triangle counting, the workhorse of the EdgeReduction rule
// of Chen et al. [13]: an edge of a balanced clique under threshold τ must
// participate in a minimum number of triangles of each sign pattern.
#ifndef MBC_GRAPH_TRIANGLES_H_
#define MBC_GRAPH_TRIANGLES_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// Counts of common neighbors w of an ordered edge (u, v), classified by the
/// sign pattern (sign(u,w), sign(v,w)).
struct EdgeTriangleCounts {
  uint32_t pos_pos = 0;  // (u,w)+ and (v,w)+
  uint32_t neg_neg = 0;  // (u,w)- and (v,w)-
  uint32_t pos_neg = 0;  // (u,w)+ and (v,w)-
  uint32_t neg_pos = 0;  // (u,w)- and (v,w)+
};

/// Classifies the common neighbors of u and v. O(d(u) + d(v)).
EdgeTriangleCounts CountEdgeTriangles(const SignedGraph& graph, VertexId u,
                                      VertexId v);

/// Total number of triangles in the unsigned skeleton (for statistics).
uint64_t CountTriangles(const SignedGraph& graph);

}  // namespace mbc

#endif  // MBC_GRAPH_TRIANGLES_H_
