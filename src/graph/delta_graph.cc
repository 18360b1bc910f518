// Copyright 2026 The balanced-clique Authors.
#include "src/graph/delta_graph.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <unordered_set>

#include "src/common/fingerprint.h"
#include "src/common/logging.h"

namespace mbc {
namespace {

/// Estimated heap cost of one overlay entry (hash node + bucket share).
constexpr size_t kOverlayEntryBytes = 48;

/// The effective state an edge key ends the batch in, folded into the
/// derived fingerprint. Values are part of the lineage definition.
enum class HeadState : uint8_t { kAbsent = 0, kPositive = 1, kNegative = 2 };

HeadState ToHeadState(std::optional<Sign> sign) {
  if (!sign) return HeadState::kAbsent;
  return *sign == Sign::kPositive ? HeadState::kPositive
                                  : HeadState::kNegative;
}

/// One classified, effective (non-noop) mutation.
struct EffectiveOp {
  uint64_t key = 0;  // (min << 32) | max
  HeadState before = HeadState::kAbsent;
  HeadState after = HeadState::kAbsent;
};

size_t CountCommon(std::span<const VertexId> a, std::span<const VertexId> b) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// |N(u) ∩ N(v)| over the unsigned skeleton. P(x) and N(x) are disjoint,
/// so the four sign pairings partition the intersection.
size_t CommonNeighborCount(const SignedGraph& graph, VertexId u, VertexId v) {
  return CountCommon(graph.PositiveNeighbors(u), graph.PositiveNeighbors(v)) +
         CountCommon(graph.PositiveNeighbors(u), graph.NegativeNeighbors(v)) +
         CountCommon(graph.NegativeNeighbors(u), graph.PositiveNeighbors(v)) +
         CountCommon(graph.NegativeNeighbors(u), graph.NegativeNeighbors(v));
}

/// Patch-merges one sign's CSR: rows without edits are block-copied from
/// the old views, edited rows are rebuilt in a single sorted merge.
/// `adds` / `dels` are directed (both orientations present) and sorted by
/// (src, dst); every del must exist in its old row, every add must not.
void BuildPatchedCsr(const uint64_t* old_offsets,
                     const VertexId* old_neighbors, VertexId num_vertices,
                     const std::vector<std::pair<VertexId, VertexId>>& adds,
                     const std::vector<std::pair<VertexId, VertexId>>& dels,
                     std::vector<uint64_t>* new_offsets,
                     std::vector<VertexId>* new_neighbors) {
  const uint64_t old_total =
      old_offsets == nullptr ? 0 : old_offsets[num_vertices];
  new_offsets->clear();
  new_offsets->reserve(num_vertices + 1ull);
  new_offsets->push_back(0);
  new_neighbors->clear();
  new_neighbors->reserve(old_total + adds.size() - dels.size());

  size_t ai = 0;
  size_t di = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const uint64_t row_begin = old_offsets == nullptr ? 0 : old_offsets[v];
    const uint64_t row_end = old_offsets == nullptr ? 0 : old_offsets[v + 1];
    const bool has_adds = ai < adds.size() && adds[ai].first == v;
    const bool has_dels = di < dels.size() && dels[di].first == v;
    if (!has_adds && !has_dels) {
      new_neighbors->insert(new_neighbors->end(), old_neighbors + row_begin,
                            old_neighbors + row_end);
    } else {
      uint64_t o = row_begin;
      while (o < row_end || (ai < adds.size() && adds[ai].first == v)) {
        const bool add_pending = ai < adds.size() && adds[ai].first == v;
        if (o < row_end &&
            (!add_pending || old_neighbors[o] < adds[ai].second)) {
          if (di < dels.size() && dels[di].first == v &&
              dels[di].second == old_neighbors[o]) {
            ++di;  // Deleted: skip.
          } else {
            new_neighbors->push_back(old_neighbors[o]);
          }
          ++o;
        } else {
          new_neighbors->push_back(adds[ai].second);
          ++ai;
        }
      }
    }
    new_offsets->push_back(new_neighbors->size());
  }
  MBC_CHECK_EQ(ai, adds.size());
  MBC_CHECK_EQ(di, dels.size());
}

}  // namespace

DeltaSignedGraph::DeltaSignedGraph(uint64_t base_fingerprint,
                                   uint64_t base_version,
                                   EdgeCount base_edges)
    : version_(base_version),
      fingerprint_(base_fingerprint),
      base_edges_(base_edges) {}

size_t DeltaSignedGraph::delta_bytes() const {
  return overlay_.size() * kOverlayEntryBytes;
}

double DeltaSignedGraph::delta_ratio() const {
  return static_cast<double>(overlay_.size()) /
         static_cast<double>(std::max<EdgeCount>(base_edges_, 1));
}

Result<DeltaSignedGraph::Patch> DeltaSignedGraph::Apply(
    const SignedGraph& head, const MutationBatch& batch,
    const DeltaBudget& budget) {
  const VertexId n = head.NumVertices();
  Patch patch;
  DeltaApplyResult& stats = patch.stats;

  // Validate and classify before touching any state.
  std::vector<EffectiveOp> ops;
  ops.reserve(batch.add.size() + batch.remove.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(ops.capacity() * 2);
  auto validate = [&](VertexId u, VertexId v) -> Status {
    if (u == v) {
      return Status::InvalidArgument("mutation touches a self-loop on vertex " +
                                     std::to_string(u));
    }
    if (u >= n || v >= n) {
      return Status::InvalidArgument(
          "mutation endpoint out of range: (" + std::to_string(u) + ", " +
          std::to_string(v) + ") with " + std::to_string(n) + " vertices");
    }
    if (!seen.insert(EdgeKey(u, v)).second) {
      return Status::InvalidArgument("duplicate edge (" + std::to_string(u) +
                                     ", " + std::to_string(v) +
                                     ") in mutation batch");
    }
    return Status::OK();
  };

  for (const MutationEdge& edge : batch.add) {
    Status status = validate(edge.u, edge.v);
    if (!status.ok()) return status;
    const HeadState before = ToHeadState(head.EdgeSign(edge.u, edge.v));
    const HeadState after = edge.sign == Sign::kPositive
                                ? HeadState::kPositive
                                : HeadState::kNegative;
    if (before == after) {
      ++stats.noops;
      continue;
    }
    ops.push_back({EdgeKey(edge.u, edge.v), before, after});
    if (before == HeadState::kAbsent) {
      ++stats.added;
      stats.skeleton_adds.emplace_back(edge.u, edge.v);
    } else {
      ++stats.flipped;
    }
  }
  for (const auto& [u, v] : batch.remove) {
    Status status = validate(u, v);
    if (!status.ok()) return status;
    const HeadState before = ToHeadState(head.EdgeSign(u, v));
    if (before == HeadState::kAbsent) {
      ++stats.noops;
      continue;
    }
    ops.push_back({EdgeKey(u, v), before, HeadState::kAbsent});
    ++stats.removed;
    stats.skeleton_removes.emplace_back(u, v);
  }

  if (ops.empty()) {
    // Nothing effective: the head is unchanged, no new version is minted
    // and patch.graph stays empty. Callers keep serving the old snapshot.
    stats.version = version_;
    stats.fingerprint = fingerprint_;
    stats.delta_bytes = delta_bytes();
    stats.delta_ratio = delta_ratio();
    return patch;
  }

  // Directed per-sign edit lists, sorted by (src, dst) for the row merge.
  std::vector<std::pair<VertexId, VertexId>> pos_adds;
  std::vector<std::pair<VertexId, VertexId>> pos_dels;
  std::vector<std::pair<VertexId, VertexId>> neg_adds;
  std::vector<std::pair<VertexId, VertexId>> neg_dels;
  for (const EffectiveOp& op : ops) {
    const VertexId u = static_cast<VertexId>(op.key >> 32);
    const VertexId v = static_cast<VertexId>(op.key & 0xffffffffull);
    if (op.before == HeadState::kPositive) {
      pos_dels.emplace_back(u, v);
      pos_dels.emplace_back(v, u);
    } else if (op.before == HeadState::kNegative) {
      neg_dels.emplace_back(u, v);
      neg_dels.emplace_back(v, u);
    }
    if (op.after == HeadState::kPositive) {
      pos_adds.emplace_back(u, v);
      pos_adds.emplace_back(v, u);
    } else if (op.after == HeadState::kNegative) {
      neg_adds.emplace_back(u, v);
      neg_adds.emplace_back(v, u);
    }
  }
  auto by_src_dst = [](const std::pair<VertexId, VertexId>& a,
                       const std::pair<VertexId, VertexId>& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  };
  std::sort(pos_adds.begin(), pos_adds.end(), by_src_dst);
  std::sort(pos_dels.begin(), pos_dels.end(), by_src_dst);
  std::sort(neg_adds.begin(), neg_adds.end(), by_src_dst);
  std::sort(neg_dels.begin(), neg_dels.end(), by_src_dst);

  std::vector<uint64_t> pos_offsets;
  std::vector<VertexId> pos_neighbors;
  std::vector<uint64_t> neg_offsets;
  std::vector<VertexId> neg_neighbors;
  BuildPatchedCsr(head.PosOffsets().data(), head.PosNeighborEntries().data(),
                  n, pos_adds, pos_dels, &pos_offsets, &pos_neighbors);
  BuildPatchedCsr(head.NegOffsets().data(), head.NegNeighborEntries().data(),
                  n, neg_adds, neg_dels, &neg_offsets, &neg_neighbors);
  patch.graph = SignedGraph::FromOwnedCsr(
      n, std::move(pos_offsets), std::move(pos_neighbors),
      std::move(neg_offsets), std::move(neg_neighbors));

  // Derived fingerprint: fold the canonical (key-sorted) effective batch
  // into the previous lineage fingerprint.
  std::sort(ops.begin(), ops.end(),
            [](const EffectiveOp& a, const EffectiveOp& b) {
              return a.key < b.key;
            });
  Fnv1aHasher hasher;
  hasher.Mix(fingerprint_);
  hasher.Mix(ops.size());
  for (const EffectiveOp& op : ops) {
    hasher.Mix(op.key);
    hasher.Mix(static_cast<uint64_t>(op.after));
  }
  version_ += 1;
  fingerprint_ = hasher.hash();

  // Dirty region + the clique bound for additions/flips, measured on the
  // new head (where the added edges exist).
  stats.dirty.reserve(ops.size() * 2);
  for (const EffectiveOp& op : ops) {
    const VertexId u = static_cast<VertexId>(op.key >> 32);
    const VertexId v = static_cast<VertexId>(op.key & 0xffffffffull);
    stats.dirty.push_back(u);
    stats.dirty.push_back(v);
    if (op.after != HeadState::kAbsent) {
      const size_t bound = 2 + CommonNeighborCount(patch.graph, u, v);
      stats.add_clique_bound = std::max(
          stats.add_clique_bound,
          static_cast<uint32_t>(std::min<size_t>(bound, UINT32_MAX)));
    }
  }
  std::sort(stats.dirty.begin(), stats.dirty.end());
  stats.dirty.erase(std::unique(stats.dirty.begin(), stats.dirty.end()),
                    stats.dirty.end());

  // Fold the net effect into the overlay: an entry records what the base
  // (last compacted state) had; reaching that state again erases it.
  for (const EffectiveOp& op : ops) {
    auto it = overlay_.find(op.key);
    if (it == overlay_.end()) {
      // First drift for this key since compaction: the pre-batch head
      // state *is* the base state.
      const BaseState base = op.before == HeadState::kAbsent ? BaseState::kAbsent
                             : op.before == HeadState::kPositive
                                 ? BaseState::kPositive
                                 : BaseState::kNegative;
      overlay_.emplace(op.key, base);
    } else {
      const HeadState base_as_head =
          it->second == BaseState::kAbsent ? HeadState::kAbsent
          : it->second == BaseState::kPositive ? HeadState::kPositive
                                               : HeadState::kNegative;
      if (base_as_head == op.after) overlay_.erase(it);
    }
  }

  stats.version = version_;
  stats.delta_bytes = delta_bytes();
  stats.delta_ratio = delta_ratio();
  if (stats.delta_bytes > budget.max_delta_bytes ||
      stats.delta_ratio > budget.compact_ratio) {
    // Budget exceeded: converge the lineage back to a content address and
    // re-base the log. This is the only O(m) hashing on the write path.
    fingerprint_ = FingerprintSignedGraph(patch.graph);
    overlay_.clear();
    base_edges_ = patch.graph.NumEdges();
    stats.compacted = true;
    stats.delta_bytes = 0;
    stats.delta_ratio = 0;
  }
  content_addressed_ = stats.compacted;
  stats.fingerprint = fingerprint_;
  patch.graph.SetFingerprintHint(fingerprint_);
  return patch;
}

DeltaSignedGraph::CompactOutcome DeltaSignedGraph::Compact(
    const SignedGraph& head) {
  CompactOutcome outcome;
  if (content_addressed_) {
    outcome.fingerprint = fingerprint_;
    return outcome;
  }
  fingerprint_ = FingerprintSignedGraph(head);
  content_addressed_ = true;
  overlay_.clear();
  base_edges_ = head.NumEdges();
  outcome.fingerprint = fingerprint_;
  outcome.changed = true;
  return outcome;
}

Status ParseMutationEdges(const std::string& text, bool with_sign,
                          MutationBatch* batch) {
  const size_t entries_before = batch->add.size() + batch->remove.size();
  std::istringstream segments(text);
  std::string segment;
  while (std::getline(segments, segment, ';')) {
    std::istringstream in(segment);
    long long u = -1;
    long long v = -1;
    if (!(in >> u >> v)) {
      // An empty trailing segment ("0 1 +;") is fine; garbage is not.
      std::istringstream probe(segment);
      std::string token;
      if (probe >> token) {
        return Status::InvalidArgument("malformed edge '" + segment + "'");
      }
      continue;
    }
    if (u < 0 || v < 0 || u > UINT32_MAX || v > UINT32_MAX) {
      return Status::InvalidArgument("edge endpoint out of range in '" +
                                     segment + "'");
    }
    std::string sign_token;
    Sign sign = Sign::kPositive;
    if (with_sign) {
      if (!(in >> sign_token)) {
        return Status::InvalidArgument("edge '" + segment +
                                       "' is missing a sign");
      }
      if (sign_token == "+" || sign_token == "+1" || sign_token == "1") {
        sign = Sign::kPositive;
      } else if (sign_token == "-" || sign_token == "-1") {
        sign = Sign::kNegative;
      } else {
        return Status::InvalidArgument("bad edge sign '" + sign_token + "'");
      }
    }
    std::string extra;
    if (in >> extra) {
      return Status::InvalidArgument("trailing tokens in edge '" + segment +
                                     "'");
    }
    if (with_sign) {
      batch->add.push_back({static_cast<VertexId>(u),
                            static_cast<VertexId>(v), sign});
    } else {
      batch->remove.emplace_back(static_cast<VertexId>(u),
                                 static_cast<VertexId>(v));
    }
  }
  if (batch->add.size() + batch->remove.size() == entries_before) {
    return Status::InvalidArgument("empty edge list");
  }
  return Status::OK();
}

}  // namespace mbc
