// Copyright 2026 The balanced-clique Authors.
#include "src/graph/cores.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mbc {
namespace {

// Calls fn(u) for every neighbor u of v in the unsigned skeleton: positive
// neighbors first, then negative ones. The peel order depends on this order.
template <typename Fn>
void ForEachNeighbor(const SignedGraph& graph, VertexId v, Fn&& fn) {
  for (VertexId u : graph.PositiveNeighbors(v)) fn(u);
  for (VertexId u : graph.NegativeNeighbors(v)) fn(u);
}

}  // namespace

// Bin-sort peeling. Maintains, for each vertex, its current degree; each
// round removes a vertex of minimum current degree.
DegeneracyResult DegeneracyDecompose(const SignedGraph& graph) {
  const VertexId n = graph.NumVertices();
  DegeneracyResult result;
  result.order.reserve(n);
  result.rank.assign(n, 0);
  result.core_number.assign(n, 0);
  if (n == 0) return result;

  std::vector<uint32_t> degree(n);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }

  // bins[d] = head of an intrusive doubly linked list of vertices whose
  // current degree is d.
  std::vector<VertexId> bin_head(max_degree + 1, kInvalidVertex);
  std::vector<VertexId> next(n, kInvalidVertex);
  std::vector<VertexId> prev(n, kInvalidVertex);
  auto bin_insert = [&](VertexId v, uint32_t d) {
    next[v] = bin_head[d];
    prev[v] = kInvalidVertex;
    if (bin_head[d] != kInvalidVertex) prev[bin_head[d]] = v;
    bin_head[d] = v;
  };
  auto bin_remove = [&](VertexId v, uint32_t d) {
    if (prev[v] != kInvalidVertex) {
      next[prev[v]] = next[v];
    } else {
      bin_head[d] = next[v];
    }
    if (next[v] != kInvalidVertex) prev[next[v]] = prev[v];
  };
  for (VertexId v = 0; v < n; ++v) bin_insert(v, degree[v]);

  std::vector<uint8_t> removed(n, 0);
  uint32_t current_min = 0;
  uint32_t max_core = 0;
  for (VertexId round = 0; round < n; ++round) {
    while (current_min <= max_degree && bin_head[current_min] == kInvalidVertex) {
      ++current_min;
    }
    MBC_CHECK_LE(current_min, max_degree);
    const VertexId v = bin_head[current_min];
    bin_remove(v, current_min);
    removed[v] = 1;
    max_core = std::max(max_core, current_min);
    result.core_number[v] = max_core;
    result.rank[v] = round;
    result.order.push_back(v);

    ForEachNeighbor(graph, v, [&](VertexId u) {
      if (removed[u]) return;
      if (degree[u] > current_min) {
        bin_remove(u, degree[u]);
        --degree[u];
        bin_insert(u, degree[u]);
        // Degree can drop below current_min only by 1; allow the scan to
        // move back.
        if (degree[u] < current_min) current_min = degree[u];
      }
    });
  }
  result.degeneracy = max_core;
  return result;
}

std::vector<uint8_t> KCoreMask(const SignedGraph& graph, uint32_t k) {
  const VertexId n = graph.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> degree(n);
  std::vector<VertexId> stack;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    if (degree[v] < k) {
      alive[v] = 0;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    ForEachNeighbor(graph, v, [&](VertexId u) {
      if (!alive[u]) return;
      if (--degree[u] < k) {
        alive[u] = 0;
        stack.push_back(u);
      }
    });
  }
  return alive;
}

}  // namespace mbc
