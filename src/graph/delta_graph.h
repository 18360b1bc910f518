// Copyright 2026 The balanced-clique Authors.
//
// Streaming mutation layer over the immutable pointer-view CSR.
//
// SignedGraph snapshots are immutable by design: every solver, the mmap
// loader and the result cache depend on frozen adjacency. DeltaSignedGraph
// makes the *store* mutable without giving that up. It keeps a bounded,
// hash-indexed mutation log (net add/remove/flip sets relative to the last
// compacted base) and, per batch, produces a brand-new immutable head
// graph by *patch-merging* the previous head: rows untouched by the batch
// are block-copied, touched rows are merged in one sorted pass. No global
// re-sort, no O(m) revalidation, and no O(m) re-fingerprint happen on the
// apply path — the head fingerprint is *derived* by folding the canonical
// batch into the previous fingerprint. A compaction pass (triggered when
// the log exceeds a byte or ratio budget, or forced by the `snapshot`
// protocol op) does the expensive work: it re-fingerprints the head by
// content, re-bases the log, and is the only point where the delta layer
// converges back to the content-addressed world shared with fresh loads.
//
// Derived fingerprints are version tags, not content addresses: the same
// logical graph reached via mutations and via a fresh load carries
// different fingerprints until compaction. That is deliberately
// conservative — it can only cost cache sharing, never correctness.
#ifndef MBC_GRAPH_DELTA_GRAPH_H_
#define MBC_GRAPH_DELTA_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// One requested edge insertion (or sign assertion) in a mutation batch.
struct MutationEdge {
  VertexId u = 0;
  VertexId v = 0;
  Sign sign = Sign::kPositive;
};

/// A batch of edge mutations, applied atomically: validation happens
/// before any state changes, and the resulting head reflects all ops.
struct MutationBatch {
  std::vector<MutationEdge> add;
  std::vector<std::pair<VertexId, VertexId>> remove;

  bool empty() const { return add.empty() && remove.empty(); }
};

/// Compaction budget for the mutation log.
struct DeltaBudget {
  /// Compact when the log's estimated footprint exceeds this many bytes.
  size_t max_delta_bytes = 8ull << 20;
  /// Compact when log entries exceed this fraction of the base edge count.
  double compact_ratio = 0.25;
};

/// Outcome of one applied batch, with everything downstream consumers
/// need: versioning for snapshot handles, the dirty region and clique
/// bound for cache invalidation, and the effective skeleton edits for
/// incremental core maintenance.
struct DeltaApplyResult {
  uint64_t version = 0;      ///< Head version after this batch.
  uint64_t fingerprint = 0;  ///< Head fingerprint after this batch.

  uint32_t added = 0;    ///< Edges newly inserted.
  uint32_t removed = 0;  ///< Edges deleted.
  uint32_t flipped = 0;  ///< Edges whose sign changed.
  uint32_t noops = 0;    ///< Requested ops that matched existing state.

  /// Sorted unique endpoints of every effective (non-noop) op — the dirty
  /// region for witness-based cache invalidation.
  std::vector<VertexId> dirty;

  /// Upper bound on the size of any clique that exists at the new head
  /// but not at the previous version: every such clique contains both
  /// endpoints of some added or flipped edge, so it fits inside
  /// {u, v} ∪ (N(u) ∩ N(v)). Zero for removal-only batches (removals
  /// cannot create cliques).
  uint32_t add_clique_bound = 0;

  /// Effective unsigned-skeleton edits (flips excluded: they do not
  /// change the skeleton), for DynamicCoreTracker consumption.
  std::vector<std::pair<VertexId, VertexId>> skeleton_adds;
  std::vector<std::pair<VertexId, VertexId>> skeleton_removes;

  size_t delta_bytes = 0;  ///< Log footprint after this batch.
  double delta_ratio = 0;  ///< Log entries / base edges after this batch.
  bool compacted = false;  ///< True when this batch triggered compaction.
};

/// The mutation log and patch-merge engine for one named graph. Not
/// thread-safe; GraphStore serializes all mutations per name. The log does
/// not own the head graph — GraphStore's snapshot does — so the only
/// steady-state memory here is the net overlay.
class DeltaSignedGraph {
 public:
  /// `base_fingerprint` / `base_version` describe the snapshot the first
  /// Apply() will patch (`base_fingerprint` must be its content
  /// fingerprint); `base_edges` sizes the compaction ratio.
  DeltaSignedGraph(uint64_t base_fingerprint, uint64_t base_version,
                   EdgeCount base_edges);

  struct Patch {
    SignedGraph graph;  ///< The new immutable head (fingerprint hint set).
    DeltaApplyResult stats;
  };

  /// Validates `batch` against `head` (endpoint range, self-loops,
  /// duplicate keys) and, if valid, patch-merges a new head graph,
  /// advances the version/fingerprint lineage, folds the net effect into
  /// the overlay log, and compacts if `budget` is exceeded. On error the
  /// log and lineage are untouched.
  Result<Patch> Apply(const SignedGraph& head, const MutationBatch& batch,
                      const DeltaBudget& budget);

  struct CompactOutcome {
    uint64_t fingerprint = 0;  ///< Content fingerprint of `head`.
    bool changed = false;  ///< False when already content-addressed.
  };

  /// Forced compaction: recomputes the true content fingerprint of `head`
  /// (O(m)), clears the log and re-bases the ratio denominator. No-op
  /// (returning the current fingerprint) when the fingerprint already is
  /// the content fingerprint — an empty log is not enough, since a batch
  /// that undoes its predecessor empties the log but leaves a derived
  /// fingerprint.
  CompactOutcome Compact(const SignedGraph& head);

  uint64_t version() const { return version_; }
  uint64_t fingerprint() const { return fingerprint_; }
  /// Net overlay entries since the last compaction.
  size_t overlay_entries() const { return overlay_.size(); }
  size_t delta_bytes() const;
  double delta_ratio() const;

 private:
  /// What the base (last compacted state) had for an edge key.
  enum class BaseState : uint8_t { kAbsent, kPositive, kNegative };

  static uint64_t EdgeKey(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  uint64_t version_ = 0;
  uint64_t fingerprint_ = 0;
  /// True while fingerprint_ is the head's content fingerprint: at
  /// construction and after a compaction, until the next effective batch.
  bool content_addressed_ = true;
  EdgeCount base_edges_ = 0;

  /// Net log: edge key -> state the *base* had. An entry exists iff the
  /// head currently differs from the base for that edge; mutations that
  /// restore the base state erase their entry, so the log tracks net
  /// drift, not raw op volume.
  std::unordered_map<uint64_t, BaseState> overlay_;
};

/// Parses a flat protocol edge list of the form "u v s;u v s;..." (s in
/// {+, -, +1, -1, 1}) into `batch->add`, or "u v;u v;..." into
/// `batch->remove` when `with_sign` is false. Separators: ';' between
/// edges, spaces within. Rejects trailing garbage — and text that yields
/// no edges at all — with InvalidArgument.
Status ParseMutationEdges(const std::string& text, bool with_sign,
                          MutationBatch* batch);

}  // namespace mbc

#endif  // MBC_GRAPH_DELTA_GRAPH_H_
