// Copyright 2026 The balanced-clique Authors.
#include "src/pf/pdecompose.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mbc {
namespace {

uint32_t PolarKey(uint32_t pos_degree, uint32_t neg_degree) {
  return std::min(pos_degree + 1, neg_degree);
}

}  // namespace

PolarDecomposition PDecompose(const SignedGraph& graph) {
  const VertexId n = graph.NumVertices();
  PolarDecomposition result;
  result.order.reserve(n);
  result.rank.assign(n, 0);
  result.polar_core_number.assign(n, 0);
  if (n == 0) return result;

  // pos1[v] holds d+(v) + 1, so the key is min(pos1, neg) and both caps
  // below compare a stored value with pn(u). Removing a vertex zeroes both
  // of its entries; 0 > pn(u) never holds, so the caps also skip removed
  // vertices.
  std::vector<uint32_t> pos1(n);
  std::vector<uint32_t> neg(n);
  std::vector<uint32_t> key(n);
  uint32_t max_key = 0;
  for (VertexId v = 0; v < n; ++v) {
    pos1[v] = graph.PositiveDegree(v) + 1;
    neg[v] = graph.NegativeDegree(v);
    key[v] = std::min(pos1[v], neg[v]);
    max_key = std::max(max_key, key[v]);
  }

  // Intrusive bucket lists keyed by the polar key, as in the degeneracy
  // peeling (Matula-Beck style bin sort).
  std::vector<VertexId> bin_head(max_key + 1, kInvalidVertex);
  std::vector<VertexId> next(n, kInvalidVertex);
  std::vector<VertexId> prev(n, kInvalidVertex);
  auto bin_insert = [&](VertexId v) {
    const uint32_t k = key[v];
    next[v] = bin_head[k];
    prev[v] = kInvalidVertex;
    if (bin_head[k] != kInvalidVertex) prev[bin_head[k]] = v;
    bin_head[k] = v;
  };
  auto bin_remove = [&](VertexId v) {
    const uint32_t k = key[v];
    if (prev[v] != kInvalidVertex) {
      next[prev[v]] = next[v];
    } else {
      bin_head[k] = next[v];
    }
    if (next[v] != kInvalidVertex) prev[next[v]] = prev[v];
  };
  auto rekey = [&](VertexId v) {
    const uint32_t new_key = std::min(pos1[v], neg[v]);
    if (new_key != key[v]) {
      bin_remove(v);
      key[v] = new_key;
      bin_insert(v);
    }
  };
  for (VertexId v = 0; v < n; ++v) bin_insert(v);

  uint32_t current_min = 0;
  for (VertexId round = 0; round < n; ++round) {
    while (current_min <= max_key && bin_head[current_min] == kInvalidVertex) {
      ++current_min;
    }
    MBC_CHECK_LE(current_min, max_key);
    const VertexId u = bin_head[current_min];
    bin_remove(u);
    pos1[u] = 0;
    neg[u] = 0;
    // Algorithm 5 Line 7: pn(u) = min{d+(u) + 1, d-(u)} in the current
    // graph. Thanks to the capped updates below, keys never drop beneath
    // the current removal level, so that level is pn(u) and pn is
    // non-decreasing over the order.
    const uint32_t pn_u = current_min;
    result.polar_core_number[u] = pn_u;
    result.rank[u] = round;
    result.order.push_back(u);

    // Lines 9-12: decrement neighbor degrees, but only while the relevant
    // component of their key stays above pn(u) (the standard core-peeling
    // cap, which keeps pn well-defined).
    for (VertexId v : graph.PositiveNeighbors(u)) {
      if (pos1[v] > pn_u) {
        --pos1[v];
        rekey(v);
      }
    }
    for (VertexId v : graph.NegativeNeighbors(u)) {
      if (neg[v] > pn_u) {
        --neg[v];
        rekey(v);
      }
    }
  }
  result.max_polar_core = current_min;
  return result;
}

std::vector<uint8_t> PolarCoreMask(const SignedGraph& graph, uint32_t k) {
  const VertexId n = graph.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> pos_degree(n);
  std::vector<uint32_t> neg_degree(n);
  std::vector<VertexId> pending;
  for (VertexId v = 0; v < n; ++v) {
    pos_degree[v] = graph.PositiveDegree(v);
    neg_degree[v] = graph.NegativeDegree(v);
    if (PolarKey(pos_degree[v], neg_degree[v]) < k) {
      alive[v] = 0;
      pending.push_back(v);
    }
  }
  while (!pending.empty()) {
    const VertexId v = pending.back();
    pending.pop_back();
    for (VertexId u : graph.PositiveNeighbors(v)) {
      if (alive[u] && PolarKey(--pos_degree[u], neg_degree[u]) < k) {
        alive[u] = 0;
        pending.push_back(u);
      }
    }
    for (VertexId u : graph.NegativeNeighbors(v)) {
      if (alive[u] && PolarKey(pos_degree[u], --neg_degree[u]) < k) {
        alive[u] = 0;
        pending.push_back(u);
      }
    }
  }
  return alive;
}

}  // namespace mbc
