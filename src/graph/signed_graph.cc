// Copyright 2026 The balanced-clique Authors.
#include "src/graph/signed_graph.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mbc {
namespace {

bool SortedContains(std::span<const VertexId> sorted, VertexId target) {
  return std::binary_search(sorted.begin(), sorted.end(), target);
}

}  // namespace

bool SignedGraph::HasPositiveEdge(VertexId u, VertexId v) const {
  // Probe the smaller adjacency list.
  if (PositiveDegree(u) > PositiveDegree(v)) std::swap(u, v);
  return SortedContains(PositiveNeighbors(u), v);
}

bool SignedGraph::HasNegativeEdge(VertexId u, VertexId v) const {
  if (NegativeDegree(u) > NegativeDegree(v)) std::swap(u, v);
  return SortedContains(NegativeNeighbors(u), v);
}

std::optional<Sign> SignedGraph::EdgeSign(VertexId u, VertexId v) const {
  if (HasPositiveEdge(u, v)) return Sign::kPositive;
  if (HasNegativeEdge(u, v)) return Sign::kNegative;
  return std::nullopt;
}

double SignedGraph::NegativeEdgeRatio() const {
  const EdgeCount total = NumEdges();
  if (total == 0) return 0.0;
  return static_cast<double>(NumNegativeEdges()) / static_cast<double>(total);
}

SignedGraph::InducedResult SignedGraph::InducedSubgraph(
    std::span<const VertexId> vertices) const {
  std::vector<VertexId> to_original(vertices.begin(), vertices.end());
  const VertexId k = static_cast<VertexId>(to_original.size());
  // Map old id -> new id; kInvalidVertex marks "not selected".
  std::vector<VertexId> to_new(num_vertices_, kInvalidVertex);
  for (VertexId i = 0; i < k; ++i) {
    const VertexId old_id = to_original[i];
    MBC_CHECK_LT(old_id, num_vertices_);
    MBC_CHECK(to_new[old_id] == kInvalidVertex)
        << "duplicate vertex in induced subgraph selection";
    to_new[old_id] = i;
  }

  // Counting pass: row i of the subgraph keeps the selected neighbours of
  // to_original[i], so each offset array is a prefix sum of those counts.
  auto kept = [&to_new](std::span<const VertexId> row) {
    uint64_t count = 0;
    for (VertexId old_v : row) count += to_new[old_v] != kInvalidVertex;
    return count;
  };
  std::vector<uint64_t> pos_offsets(k + size_t{1}, 0);
  std::vector<uint64_t> neg_offsets(k + size_t{1}, 0);
  for (VertexId i = 0; i < k; ++i) {
    const VertexId old_u = to_original[i];
    pos_offsets[i + 1] = pos_offsets[i] + kept(PositiveNeighbors(old_u));
    neg_offsets[i + 1] = neg_offsets[i] + kept(NegativeNeighbors(old_u));
  }

  // Fill pass. Remapping preserves order when the selection ascends, so
  // each row comes out sorted; otherwise each row is sorted on its own.
  const bool ascending =
      std::is_sorted(to_original.begin(), to_original.end());
  auto fill = [&to_new, ascending](std::span<const VertexId> row,
                                   VertexId* out) {
    VertexId* const begin = out;
    for (VertexId old_v : row) {
      const VertexId new_v = to_new[old_v];
      if (new_v != kInvalidVertex) *out++ = new_v;
    }
    if (!ascending) std::sort(begin, out);
  };
  std::vector<VertexId> pos_neighbors(pos_offsets[k]);
  std::vector<VertexId> neg_neighbors(neg_offsets[k]);
  for (VertexId i = 0; i < k; ++i) {
    fill(PositiveNeighbors(to_original[i]),
         pos_neighbors.data() + pos_offsets[i]);
    fill(NegativeNeighbors(to_original[i]),
         neg_neighbors.data() + neg_offsets[i]);
  }
  return InducedResult{
      FromOwnedCsr(k, std::move(pos_offsets), std::move(pos_neighbors),
                   std::move(neg_offsets), std::move(neg_neighbors)),
      std::move(to_original)};
}

size_t SignedGraph::MemoryBytes() const {
  return owned_pos_offsets_.capacity() * sizeof(uint64_t) +
         owned_neg_offsets_.capacity() * sizeof(uint64_t) +
         owned_pos_neighbors_.capacity() * sizeof(VertexId) +
         owned_neg_neighbors_.capacity() * sizeof(VertexId);
}

void SignedGraph::BindOwnedViews() {
  pos_offsets_ = owned_pos_offsets_.data();
  pos_neighbors_ = owned_pos_neighbors_.data();
  neg_offsets_ = owned_neg_offsets_.data();
  neg_neighbors_ = owned_neg_neighbors_.data();
  pos_entries_ = owned_pos_neighbors_.size();
  neg_entries_ = owned_neg_neighbors_.size();
}

void SignedGraph::CopyFrom(const SignedGraph& other) {
  num_vertices_ = other.num_vertices_;
  pos_entries_ = other.pos_entries_;
  neg_entries_ = other.neg_entries_;
  mapped_bytes_ = other.mapped_bytes_;
  fingerprint_hint_ = other.fingerprint_hint_;
  has_fingerprint_hint_ = other.has_fingerprint_hint_;
  payload_ = other.payload_;
  if (payload_ != nullptr) {
    // Mapped: copies share the payload and its views — O(1).
    owned_pos_offsets_.clear();
    owned_pos_neighbors_.clear();
    owned_neg_offsets_.clear();
    owned_neg_neighbors_.clear();
    pos_offsets_ = other.pos_offsets_;
    pos_neighbors_ = other.pos_neighbors_;
    neg_offsets_ = other.neg_offsets_;
    neg_neighbors_ = other.neg_neighbors_;
  } else {
    owned_pos_offsets_ = other.owned_pos_offsets_;
    owned_pos_neighbors_ = other.owned_pos_neighbors_;
    owned_neg_offsets_ = other.owned_neg_offsets_;
    owned_neg_neighbors_ = other.owned_neg_neighbors_;
    BindOwnedViews();
  }
}

void SignedGraph::MoveFrom(SignedGraph&& other) noexcept {
  num_vertices_ = other.num_vertices_;
  pos_entries_ = other.pos_entries_;
  neg_entries_ = other.neg_entries_;
  mapped_bytes_ = other.mapped_bytes_;
  fingerprint_hint_ = other.fingerprint_hint_;
  has_fingerprint_hint_ = other.has_fingerprint_hint_;
  payload_ = std::move(other.payload_);
  owned_pos_offsets_ = std::move(other.owned_pos_offsets_);
  owned_pos_neighbors_ = std::move(other.owned_pos_neighbors_);
  owned_neg_offsets_ = std::move(other.owned_neg_offsets_);
  owned_neg_neighbors_ = std::move(other.owned_neg_neighbors_);
  if (payload_ != nullptr) {
    pos_offsets_ = other.pos_offsets_;
    pos_neighbors_ = other.pos_neighbors_;
    neg_offsets_ = other.neg_offsets_;
    neg_neighbors_ = other.neg_neighbors_;
  } else {
    // Moved vectors keep their heap blocks, but rebind for clarity (and
    // for the small-graph case where pointers may differ).
    BindOwnedViews();
  }
  other.num_vertices_ = 0;
  other.pos_entries_ = 0;
  other.neg_entries_ = 0;
  other.mapped_bytes_ = 0;
  other.has_fingerprint_hint_ = false;
  other.pos_offsets_ = nullptr;
  other.pos_neighbors_ = nullptr;
  other.neg_offsets_ = nullptr;
  other.neg_neighbors_ = nullptr;
}

SignedGraph SignedGraph::FromOwnedCsr(VertexId num_vertices,
                                      std::vector<uint64_t> pos_offsets,
                                      std::vector<VertexId> pos_neighbors,
                                      std::vector<uint64_t> neg_offsets,
                                      std::vector<VertexId> neg_neighbors) {
  MBC_CHECK_EQ(pos_offsets.size(), num_vertices + size_t{1});
  MBC_CHECK_EQ(neg_offsets.size(), num_vertices + size_t{1});
  MBC_CHECK_EQ(pos_offsets.back(), pos_neighbors.size());
  MBC_CHECK_EQ(neg_offsets.back(), neg_neighbors.size());
  SignedGraph graph;
  graph.num_vertices_ = num_vertices;
  graph.owned_pos_offsets_ = std::move(pos_offsets);
  graph.owned_pos_neighbors_ = std::move(pos_neighbors);
  graph.owned_neg_offsets_ = std::move(neg_offsets);
  graph.owned_neg_neighbors_ = std::move(neg_neighbors);
  graph.BindOwnedViews();
  return graph;
}

SignedGraph SignedGraph::FromMappedCsr(
    VertexId num_vertices, const uint64_t* pos_offsets,
    const VertexId* pos_neighbors, uint64_t pos_entries,
    const uint64_t* neg_offsets, const VertexId* neg_neighbors,
    uint64_t neg_entries, std::shared_ptr<const void> payload,
    size_t mapped_bytes, uint64_t fingerprint_hint) {
  SignedGraph graph;
  graph.num_vertices_ = num_vertices;
  graph.pos_offsets_ = pos_offsets;
  graph.pos_neighbors_ = pos_neighbors;
  graph.pos_entries_ = pos_entries;
  graph.neg_offsets_ = neg_offsets;
  graph.neg_neighbors_ = neg_neighbors;
  graph.neg_entries_ = neg_entries;
  graph.payload_ = std::move(payload);
  graph.mapped_bytes_ = mapped_bytes;
  graph.fingerprint_hint_ = fingerprint_hint;
  graph.has_fingerprint_hint_ = true;
  MBC_CHECK(graph.payload_ != nullptr)
      << "FromMappedCsr requires a payload keeper";
  return graph;
}

}  // namespace mbc
