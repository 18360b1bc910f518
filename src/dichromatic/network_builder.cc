// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/network_builder.h"

#include <algorithm>
#include <bit>
#include <span>

#include "src/common/logging.h"

namespace mbc {
namespace {

// Sets bit e of `bits` for every CSR entry e whose neighbour ranks above
// the list's owner.
void OrientLists(std::span<const uint64_t> offsets,
                 std::span<const VertexId> neighbors, const uint32_t* rank,
                 std::vector<uint64_t>* bits) {
  bits->assign((neighbors.size() + 63) / 64, 0);
  for (size_t x = 0; x + 1 < offsets.size(); ++x) {
    for (uint64_t e = offsets[x]; e < offsets[x + 1]; ++e) {
      const VertexId y = neighbors[e];
      MBC_DCHECK(rank[y] != rank[x]);
      if (rank[y] > rank[x]) (*bits)[e >> 6] |= uint64_t{1} << (e & 63);
    }
  }
}

// Calls fn(neighbors[e]) for every set bit e of `bits` in [begin, end),
// one 64-bit word at a time.
template <typename Fn>
void ForEachOriented(const uint64_t* bits, const VertexId* neighbors,
                     uint64_t begin, uint64_t end, Fn&& fn) {
  if (begin >= end) return;
  const uint64_t last = (end - 1) >> 6;
  uint64_t w = begin >> 6;
  uint64_t word = bits[w] & (~uint64_t{0} << (begin & 63));
  for (;;) {
    if (w == last && (end & 63) != 0) {
      word &= (uint64_t{1} << (end & 63)) - 1;
    }
    while (word != 0) {
      fn(neighbors[(w << 6) + std::countr_zero(word)]);
      word &= word - 1;
    }
    if (w == last) return;
    word = bits[++w];
  }
}

// Calls fn(y, positive) for every neighbour y > x in x's id-sorted lists:
// each edge is offered once, from its lower id.
template <typename Fn>
void ForEachHigherNeighbor(const SignedGraph& graph, VertexId x, Fn&& fn) {
  const std::span<const VertexId> pos = graph.PositiveNeighbors(x);
  for (auto it = std::upper_bound(pos.begin(), pos.end(), x); it != pos.end();
       ++it) {
    fn(*it, true);
  }
  const std::span<const VertexId> neg = graph.NegativeNeighbors(x);
  for (auto it = std::upper_bound(neg.begin(), neg.end(), x); it != neg.end();
       ++it) {
    fn(*it, false);
  }
}

// Whether a signed edge between members of local ids i and j is an edge of
// g_u (local ids below num_left are V_L): a positive edge is
// non-conflicting iff both endpoints are on the same side, a negative one
// iff they are on opposite sides.
bool NonConflicting(uint32_t i, uint32_t j, uint32_t num_left,
                    bool positive) {
  return ((i < num_left) == (j < num_left)) == positive;
}

}  // namespace

DichromaticNetworkBuilder::DichromaticNetworkBuilder(const SignedGraph& graph)
    : graph_(graph),
      local_id_(graph.NumVertices(), 0),
      stamp_(graph.NumVertices(), 0) {}

DichromaticNetwork DichromaticNetworkBuilder::Build(VertexId u,
                                                    const uint32_t* rank,
                                                    const uint8_t* alive) {
  DichromaticNetwork net;
  BuildInto(u, rank, alive, &net);
  return net;
}

void DichromaticNetworkBuilder::OrientBy(const uint32_t* rank) {
  if (rank == oriented_by_) return;
  OrientLists(graph_.PosOffsets(), graph_.PosNeighborEntries(), rank,
              &pos_up_);
  OrientLists(graph_.NegOffsets(), graph_.NegNeighborEntries(), rank,
              &neg_up_);
  oriented_by_ = rank;
}

uint32_t DichromaticNetworkBuilder::StampMembers(
    VertexId u, const uint32_t* rank, const uint8_t* alive,
    std::vector<VertexId>* members) {
  MBC_DCHECK(alive == nullptr || alive[u]);
  ++current_stamp_;
  members->clear();
  members->push_back(u);  // local 0 = u
  auto admit = [&](VertexId v) {
    if (alive != nullptr && !alive[v]) return;
    if (rank != nullptr && rank[v] <= rank[u]) return;
    local_id_[v] = static_cast<uint32_t>(members->size());
    stamp_[v] = current_stamp_;
    members->push_back(v);
  };
  // V_L first (positive neighbors), then V_R (negative neighbors); the
  // sides are told apart by local-id range.
  for (VertexId v : graph_.PositiveNeighbors(u)) admit(v);
  const uint32_t num_left = static_cast<uint32_t>(members->size());
  for (VertexId v : graph_.NegativeNeighbors(u)) admit(v);
  return num_left;
}

void DichromaticNetworkBuilder::BuildInto(VertexId u, const uint32_t* rank,
                                          const uint8_t* alive,
                                          DichromaticNetwork* out) {
  DichromaticNetwork& net = *out;
  net.ego_edges = 0;
  net.dichromatic_edges = 0;
  const uint32_t num_left = StampMembers(u, rank, alive, &net.to_original);

  const uint32_t k = static_cast<uint32_t>(net.to_original.size());
  net.graph.Reset(k);
  for (uint32_t i = 0; i < num_left; ++i) net.graph.SetSide(i, Side::kLeft);
  for (uint32_t i = num_left; i < k; ++i) net.graph.SetSide(i, Side::kRight);

  // u is adjacent to every other member by construction, and those edges
  // are never conflicting (positive to V_L, negative to V_R).
  for (uint32_t i = 1; i < k; ++i) net.graph.AddEdge(0, i);

  // Edges among the members (excluding u, which is never stamped): each is
  // offered once, from its lower endpoint, and kept if non-conflicting.
  auto offer = [&](uint32_t i, VertexId y, bool positive) {
    if (stamp_[y] != current_stamp_) return;
    const uint32_t j = local_id_[y];
    ++net.ego_edges;
    if (NonConflicting(i, j, num_left, positive)) {
      net.graph.AddEdge(i, j);
      ++net.dichromatic_edges;
    }
  };
  if (rank != nullptr) {
    // Lower = lower-ranked: walk each member's orientation bits.
    OrientBy(rank);
    const std::span<const uint64_t> pos_offsets = graph_.PosOffsets();
    const std::span<const uint64_t> neg_offsets = graph_.NegOffsets();
    const VertexId* pos_neighbors = graph_.PosNeighborEntries().data();
    const VertexId* neg_neighbors = graph_.NegNeighborEntries().data();
    for (uint32_t i = 1; i < k; ++i) {
      const VertexId x = net.to_original[i];
      ForEachOriented(pos_up_.data(), pos_neighbors, pos_offsets[x],
                      pos_offsets[x + 1],
                      [&](VertexId y) { offer(i, y, true); });
      ForEachOriented(neg_up_.data(), neg_neighbors, neg_offsets[x],
                      neg_offsets[x + 1],
                      [&](VertexId y) { offer(i, y, false); });
    }
  } else {
    // Lower = lower id: scan each member's lists above its own id.
    for (uint32_t i = 1; i < k; ++i) {
      ForEachHigherNeighbor(graph_, net.to_original[i],
                            [&](VertexId y, bool positive) {
                              offer(i, y, positive);
                            });
    }
  }
}

uint32_t DichromaticNetworkBuilder::MemberDegrees(
    VertexId u, std::vector<VertexId>* members,
    std::vector<uint32_t>* degrees) {
  const uint32_t num_left = StampMembers(u, nullptr, nullptr, members);
  const uint32_t k = static_cast<uint32_t>(members->size());
  // Every member is adjacent to u; u to all k-1 others.
  degrees->assign(k, 1);
  (*degrees)[0] = k - 1;
  for (uint32_t i = 1; i < k; ++i) {
    ForEachHigherNeighbor(graph_, (*members)[i],
                          [&](VertexId y, bool positive) {
                            if (stamp_[y] != current_stamp_) return;
                            const uint32_t j = local_id_[y];
                            if (NonConflicting(i, j, num_left, positive)) {
                              ++(*degrees)[i];
                              ++(*degrees)[j];
                            }
                          });
  }
  stamped_left_ = num_left;
  return num_left;
}

void DichromaticNetworkBuilder::MemberNeighbors(
    VertexId x, std::vector<VertexId>* out) const {
  MBC_DCHECK(stamp_[x] == current_stamp_);
  const uint32_t i = local_id_[x];
  auto offer = [&](VertexId y, bool positive) {
    if (stamp_[y] == current_stamp_ &&
        NonConflicting(i, local_id_[y], stamped_left_, positive)) {
      out->push_back(y);
    }
  };
  for (VertexId y : graph_.PositiveNeighbors(x)) offer(y, true);
  for (VertexId y : graph_.NegativeNeighbors(x)) offer(y, false);
}

}  // namespace mbc
