// Copyright 2026 The balanced-clique Authors.
#include "src/core/reductions.h"

#include <span>
#include <utility>

#include "src/common/logging.h"
#include "src/graph/signed_graph_builder.h"
#include "src/graph/triangles.h"

namespace mbc {

std::vector<uint8_t> VertexReductionMask(const SignedGraph& graph,
                                         uint32_t tau) {
  const VertexId n = graph.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  if (tau == 0) return alive;
  const uint32_t need_pos = tau - 1;
  const uint32_t need_neg = tau;

  // Most vertices fail the degree filter outright. Their lists are never
  // read: the survivors' degrees are recounted against the survivors, and
  // the cascade runs among them alone. The fixpoint is unique, so the mask
  // is the one a cascade from every failing vertex reaches.
  std::vector<VertexId> survivors;
  for (VertexId v = 0; v < n; ++v) {
    alive[v] = graph.PositiveDegree(v) >= need_pos &&
               graph.NegativeDegree(v) >= need_neg;
    if (alive[v]) survivors.push_back(v);
  }
  const auto count_alive = [&](std::span<const VertexId> list) {
    uint32_t count = 0;
    for (VertexId u : list) count += alive[u];
    return count;
  };
  std::vector<uint32_t> pos_degree(n);
  std::vector<uint32_t> neg_degree(n);
  for (VertexId v : survivors) {
    pos_degree[v] = count_alive(graph.PositiveNeighbors(v));
    neg_degree[v] = count_alive(graph.NegativeNeighbors(v));
  }
  // Marked only after every recount, so each counts the same survivors.
  std::vector<VertexId> pending;
  for (VertexId v : survivors) {
    if (pos_degree[v] < need_pos || neg_degree[v] < need_neg) {
      pending.push_back(v);
    }
  }
  for (VertexId v : pending) alive[v] = 0;
  while (!pending.empty()) {
    const VertexId v = pending.back();
    pending.pop_back();
    for (VertexId u : graph.PositiveNeighbors(v)) {
      if (alive[u] && --pos_degree[u] < need_pos) {
        alive[u] = 0;
        pending.push_back(u);
      }
    }
    for (VertexId u : graph.NegativeNeighbors(v)) {
      if (alive[u] && --neg_degree[u] < need_neg) {
        alive[u] = 0;
        pending.push_back(u);
      }
    }
  }
  return alive;
}

ReducedSignedGraph ApplyVertexReduction(const SignedGraph& graph,
                                        uint32_t tau) {
  const std::vector<uint8_t> alive = VertexReductionMask(graph, tau);
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (alive[v]) keep.push_back(v);
  }
  SignedGraph::InducedResult induced = graph.InducedSubgraph(keep);
  return ReducedSignedGraph{std::move(induced.graph),
                            std::move(induced.to_original)};
}

SignedGraph EdgeReduction(const SignedGraph& graph, uint32_t tau,
                          ExecutionContext* exec) {
  if (tau < 2) {
    // For τ ≤ 1 the triangle conditions are vacuous for positive edges and
    // (for τ == 1) require nothing beyond edge existence for negative ones.
    return graph;
  }
  const uint32_t pos_need_pp = tau - 2;
  const uint32_t pos_need_nn = tau;
  const uint32_t neg_need_mixed = tau - 1;

  SignedGraph current = graph;
  bool aborted = exec != nullptr && exec->Probe();
  while (!aborted) {
    SignedGraphBuilder builder(current.NumVertices());
    uint64_t removed = 0;
    auto classify = [&](VertexId u, VertexId v, Sign sign) {
      if (exec != nullptr && exec->Checkpoint()) aborted = true;
      if (aborted) return;  // partial round is discarded below
      const EdgeTriangleCounts counts = CountEdgeTriangles(current, u, v);
      bool keep = true;
      if (sign == Sign::kPositive) {
        keep = counts.pos_pos >= pos_need_pp && counts.neg_neg >= pos_need_nn;
      } else {
        keep =
            counts.pos_neg >= neg_need_mixed && counts.neg_pos >= neg_need_mixed;
      }
      if (keep) {
        builder.AddEdge(u, v, sign);
      } else {
        ++removed;
      }
    };
    current.ForEachEdge(classify);
    if (aborted || removed == 0) break;
    SignedGraph next = std::move(builder).Build();
    // Removing edges can invalidate the degree conditions; clear the
    // adjacency of degree-violating vertices so their edges are retried.
    const std::vector<uint8_t> alive = VertexReductionMask(next, tau);
    SignedGraphBuilder filtered(next.NumVertices());
    next.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
      if (alive[u] && alive[v]) filtered.AddEdge(u, v, sign);
    });
    current = std::move(filtered).Build();
  }
  return current;
}

}  // namespace mbc
