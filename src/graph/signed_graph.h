// Copyright 2026 The balanced-clique Authors.
//
// Immutable CSR representation of an undirected simple signed graph
// G = (V, E+, E-). Positive and negative adjacency are stored separately,
// each sorted by neighbor id, because every algorithm in the paper treats
// the two signs asymmetrically (polar cores, dichromatic networks, ...).
//
// The CSR arrays are accessed through read-only views that are backed
// either by heap vectors owned by this graph (the Build path) or by a
// shared, immutable payload such as an mmapped binary-v2 file (the
// zero-copy path, src/graph/binary_io.h). A mapped graph copies in O(1) —
// copies share the mapping — and its adjacency bytes stay on disk until a
// query faults the pages it actually touches.
#ifndef MBC_GRAPH_SIGNED_GRAPH_H_
#define MBC_GRAPH_SIGNED_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace mbc {

class SignedGraphBuilder;

/// Immutable signed graph. Construct via SignedGraphBuilder, or via the
/// binary-v2 mmap loader (MmapSignedGraphBinary) for zero-copy views.
///
/// Vertices are dense ids in [0, NumVertices()). Both directions of every
/// undirected edge are stored, so adjacency spans contain each neighbor
/// exactly once and NumEdges() counts undirected edges.
class SignedGraph {
 public:
  SignedGraph() = default;

  SignedGraph(const SignedGraph& other) { CopyFrom(other); }
  SignedGraph& operator=(const SignedGraph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  SignedGraph(SignedGraph&& other) noexcept { MoveFrom(std::move(other)); }
  SignedGraph& operator=(SignedGraph&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  VertexId NumVertices() const { return num_vertices_; }
  /// Number of undirected edges |E| = |E+| + |E-|.
  EdgeCount NumEdges() const {
    return NumPositiveEdges() + NumNegativeEdges();
  }
  EdgeCount NumPositiveEdges() const { return pos_entries_ / 2; }
  EdgeCount NumNegativeEdges() const { return neg_entries_ / 2; }

  /// Positive neighbors of v, sorted ascending.
  std::span<const VertexId> PositiveNeighbors(VertexId v) const {
    return {pos_neighbors_ + pos_offsets_[v],
            pos_neighbors_ + pos_offsets_[v + 1]};
  }
  /// Negative neighbors of v, sorted ascending.
  std::span<const VertexId> NegativeNeighbors(VertexId v) const {
    return {neg_neighbors_ + neg_offsets_[v],
            neg_neighbors_ + neg_offsets_[v + 1]};
  }

  /// The raw CSR arrays (offset array has NumVertices()+1 entries; the
  /// neighbor arrays have PosEntries()/NegEntries() entries). Used by the
  /// binary writer and the fingerprint; empty-graph views may be null.
  std::span<const uint64_t> PosOffsets() const {
    return {pos_offsets_, pos_offsets_ == nullptr ? 0 : num_vertices_ + 1ull};
  }
  std::span<const uint64_t> NegOffsets() const {
    return {neg_offsets_, neg_offsets_ == nullptr ? 0 : num_vertices_ + 1ull};
  }
  std::span<const VertexId> PosNeighborEntries() const {
    return {pos_neighbors_, pos_entries_};
  }
  std::span<const VertexId> NegNeighborEntries() const {
    return {neg_neighbors_, neg_entries_};
  }

  uint32_t PositiveDegree(VertexId v) const {
    return static_cast<uint32_t>(pos_offsets_[v + 1] - pos_offsets_[v]);
  }
  uint32_t NegativeDegree(VertexId v) const {
    return static_cast<uint32_t>(neg_offsets_[v + 1] - neg_offsets_[v]);
  }
  uint32_t Degree(VertexId v) const {
    return PositiveDegree(v) + NegativeDegree(v);
  }

  bool HasPositiveEdge(VertexId u, VertexId v) const;
  bool HasNegativeEdge(VertexId u, VertexId v) const;
  /// Sign of edge (u, v), or nullopt if absent.
  std::optional<Sign> EdgeSign(VertexId u, VertexId v) const;

  /// Ratio |E-| / |E| (0 when the graph has no edges).
  double NegativeEdgeRatio() const;

  /// Subgraph induced by `vertices` (which need not be sorted; duplicates
  /// are forbidden). Returns the subgraph plus `to_original`, mapping each
  /// new vertex id to the id it had in this graph.
  ///
  /// Costs O(n + Σ selected degrees) with no global edge sort: one counting
  /// pass and one fill pass over the selected rows write the CSR arrays
  /// directly. An ascending selection keeps every row sorted as it is
  /// remapped; any other order sorts each row on its own. The arrays equal
  /// those SignedGraphBuilder would build from the same edges.
  struct InducedResult;
  InducedResult InducedSubgraph(std::span<const VertexId> vertices) const;

  /// Bytes of heap memory owned by this graph's CSR arrays. Zero for a
  /// mapped graph — its bytes live in the shared mapping (MappedBytes()).
  size_t MemoryBytes() const;

  /// True when the CSR views point into a shared payload (mmapped file)
  /// instead of owned heap vectors.
  bool IsMapped() const { return payload_ != nullptr; }
  /// Size of the backing mapping (0 for owned graphs). Pages of a mapped
  /// graph are faulted on demand and shared across processes; resident
  /// bytes are typically far below this on cold loads.
  size_t MappedBytes() const { return mapped_bytes_; }
  /// Base address of the backing mapping (the payload pointer aliases
  /// it), or nullptr for owned graphs. Suitable for mincore sampling via
  /// MappedResidentBytes.
  const void* MappedBase() const { return payload_.get(); }

  /// Content fingerprint carried by the source file (binary v2 stores the
  /// FNV-1a CSR fingerprint in its header), letting GraphStore skip the
  /// O(m) fingerprint pass — and the page faults it would cause — on
  /// mmap loads. nullopt for graphs built in memory.
  std::optional<uint64_t> FingerprintHint() const {
    if (!has_fingerprint_hint_) return std::nullopt;
    return fingerprint_hint_;
  }

  /// Attaches a fingerprint the caller vouches for. The delta layer uses
  /// this to tag patched heads with a derived (version-lineage)
  /// fingerprint, and compaction to tag rebased heads with the true
  /// content fingerprint, without an extra O(m) pass in GraphStore.
  void SetFingerprintHint(uint64_t fingerprint) {
    fingerprint_hint_ = fingerprint;
    has_fingerprint_hint_ = true;
  }

  /// Wraps externally validated CSR arrays (typically sections of an
  /// mmapped binary-v2 file) without copying. `payload` keeps the backing
  /// bytes alive for the lifetime of this graph and all its copies.
  /// Preconditions (the binary reader enforces them): offsets arrays have
  /// num_vertices+1 monotone entries ending in the entry counts; neighbor
  /// ids are < num_vertices and sorted per row.
  static SignedGraph FromMappedCsr(VertexId num_vertices,
                                   const uint64_t* pos_offsets,
                                   const VertexId* pos_neighbors,
                                   uint64_t pos_entries,
                                   const uint64_t* neg_offsets,
                                   const VertexId* neg_neighbors,
                                   uint64_t neg_entries,
                                   std::shared_ptr<const void> payload,
                                   size_t mapped_bytes,
                                   uint64_t fingerprint_hint);

  /// Adopts fully built CSR arrays without re-sorting. The caller must
  /// have validated the same invariants FromMappedCsr documents (the
  /// binary reader does); only size consistency is checked here.
  static SignedGraph FromOwnedCsr(VertexId num_vertices,
                                  std::vector<uint64_t> pos_offsets,
                                  std::vector<VertexId> pos_neighbors,
                                  std::vector<uint64_t> neg_offsets,
                                  std::vector<VertexId> neg_neighbors);

  /// Invokes fn(u, v, sign) once per undirected edge (with u < v).
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (VertexId u = 0; u < num_vertices_; ++u) {
      for (VertexId v : PositiveNeighbors(u)) {
        if (u < v) fn(u, v, Sign::kPositive);
      }
      for (VertexId v : NegativeNeighbors(u)) {
        if (u < v) fn(u, v, Sign::kNegative);
      }
    }
  }

 private:
  friend class SignedGraphBuilder;

  /// Points the view pointers at the owned vectors.
  void BindOwnedViews();
  void CopyFrom(const SignedGraph& other);
  void MoveFrom(SignedGraph&& other) noexcept;

  VertexId num_vertices_ = 0;
  uint64_t pos_entries_ = 0;  // directed adjacency entries = 2 |E+|
  uint64_t neg_entries_ = 0;

  // Owned storage; empty when the graph views a shared payload.
  std::vector<uint64_t> owned_pos_offsets_;   // size n+1
  std::vector<VertexId> owned_pos_neighbors_;
  std::vector<uint64_t> owned_neg_offsets_;   // size n+1
  std::vector<VertexId> owned_neg_neighbors_;

  // The views every accessor reads. Bound to the owned vectors by the
  // builder / copy path, or into `payload_` by FromMappedCsr.
  const uint64_t* pos_offsets_ = nullptr;
  const VertexId* pos_neighbors_ = nullptr;
  const uint64_t* neg_offsets_ = nullptr;
  const VertexId* neg_neighbors_ = nullptr;

  /// Keeps a mapped payload alive; null for owned graphs.
  std::shared_ptr<const void> payload_;
  size_t mapped_bytes_ = 0;
  uint64_t fingerprint_hint_ = 0;
  bool has_fingerprint_hint_ = false;
};

struct SignedGraph::InducedResult {
  SignedGraph graph;
  std::vector<VertexId> to_original;
};

}  // namespace mbc

#endif  // MBC_GRAPH_SIGNED_GRAPH_H_
