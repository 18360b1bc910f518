// Copyright 2026 The balanced-clique Authors.
//
// Extraction of ego-networks and dichromatic networks (Section III-B).
//
// For a vertex u of a signed graph G and a total ordering of V:
//   * the ego-network G_u is the subgraph induced by u and u's higher-ranked
//     neighbors;
//   * the dichromatic network g_u labels V_L = {u} ∪ N+(u), V_R = N-(u),
//     removes all *conflicting* edges (negative inside a side, positive
//     across sides) and then discards edge signs.
// Theorem 2: the maximum balanced clique containing u as a lowest-ranked
// vertex equals the maximum dichromatic clique containing u in g_u.
#ifndef MBC_DICHROMATIC_NETWORK_BUILDER_H_
#define MBC_DICHROMATIC_NETWORK_BUILDER_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/dichromatic/dichromatic_graph.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// A dichromatic network g_u plus bookkeeping for instrumentation.
struct DichromaticNetwork {
  /// The dichromatic graph. Local vertex 0 is u itself (an L-vertex).
  DichromaticGraph graph;
  /// Maps local ids to vertex ids in the original signed graph.
  std::vector<VertexId> to_original;
  /// Edges of the ego-network G_u, excluding edges incident to u (the
  /// paper's Example 1 convention for reporting reduction ratios).
  uint64_t ego_edges = 0;
  /// Edges of g_u, excluding edges incident to u. SR1 = 1 - dichromatic
  /// edges / ego edges.
  uint64_t dichromatic_edges = 0;
};

/// The oriented out-lists of a signed graph under a rank array: for every
/// vertex x, its higher-ranked positive neighbours and then its
/// higher-ranked negative ones, in id order, in one contiguous run. Every
/// edge sits in exactly one list, its lower-ranked endpoint's, so the
/// lists cost 4 bytes per edge plus 16 per vertex of offsets (2.1 MB on
/// the τ=2 work graph of servicebench's `bscl_1m`, 138 KB on its
/// `dense_core`; docs/perf.md). Read-only once built: threads that build
/// networks over one rank array can share one instance.
class RankedOutLists {
 public:
  /// (Re)builds the lists of `graph` under `rank` (size n) in O(|E|).
  /// Adjacent vertices must have distinct ranks (a degeneracy order or
  /// any permutation of ids qualifies).
  void Build(const SignedGraph& graph, const uint32_t* rank);

  /// The `rank` of the last Build; nullptr before the first.
  const uint32_t* rank() const { return rank_; }

  /// Calls fn(y, positive) for every higher-ranked neighbour y of x.
  template <typename Fn>
  void ForEach(VertexId x, Fn&& fn) const {
    const uint64_t* at = &offsets_[2 * size_t{x}];
    for (uint64_t e = at[0]; e < at[1]; ++e) fn(up_[e], true);
    for (uint64_t e = at[1]; e < at[2]; ++e) fn(up_[e], false);
  }

 private:
  // x's positive out-list is up_[offsets_[2x], offsets_[2x+1]), its
  // negative one up_[offsets_[2x+1], offsets_[2x+2]).
  std::vector<uint64_t> offsets_;
  std::vector<VertexId> up_;
  const uint32_t* rank_ = nullptr;
};

/// Builds dichromatic networks for successive vertices of one signed graph.
/// Keeps O(n) scratch plus, for ranked builds, the RankedOutLists of the
/// rank array in use: shared ones passed at construction, or its own.
///
/// Cost model. Each member-member edge of g_u is found once, from its lower
/// endpoint:
///   * ranked builds (rank non-null) read each member's out-list, so a
///     member x costs only its higher-ranked neighbours — at most the
///     degeneracy when `rank` is a degeneracy order, even for a hub;
///   * unranked builds scan only the part of each member's id-sorted lists
///     above the member's own id, found with one binary search.
/// Either way u's own lists are read once to collect the members.
///
/// A ranked call reads the shared out-lists when they were built under
/// the `rank` pointer it passes. Otherwise the builder uses its own: built
/// in O(|E|) on the first such call, kept for later calls that pass the
/// same pointer, and rebuilt, at O(|E|) per switch, when a different
/// pointer arrives. The out-lists only decide which endpoint offers an
/// edge, and any out-lists built for this graph offer every edge exactly
/// once, so out-lists left over from other rank contents at the same
/// address cost time, never correctness. Adjacent vertices must have
/// distinct ranks.
class DichromaticNetworkBuilder {
 public:
  /// `graph`, and `shared` if non-null, must outlive the builder;
  /// `shared` must have been built over `graph`.
  explicit DichromaticNetworkBuilder(const SignedGraph& graph,
                                     const RankedOutLists* shared = nullptr);

  /// Builds g_u. If `rank` is non-null (size n), only neighbors v with
  /// rank[v] > rank[u] join the network; if `alive` is non-null (size n),
  /// only alive neighbors join. u itself always joins (as local vertex 0)
  /// and must be alive. Members keep the order of u's id-sorted positive
  /// list, then its negative list, whatever `rank` is.
  DichromaticNetwork Build(VertexId u, const uint32_t* rank = nullptr,
                           const uint8_t* alive = nullptr);

  /// Clear-and-refill variant: emits g_u into a caller-owned network whose
  /// storage is reused across calls. After the reused network has seen its
  /// largest g_u, further refills perform no heap allocation; callers in
  /// the MBC*/PF* vertex loops hoist one DichromaticNetwork out of the
  /// loop and pass it here for every u.
  void BuildInto(VertexId u, const uint32_t* rank, const uint8_t* alive,
                 DichromaticNetwork* net);

  /// Member-degree pass: the degree in g_u of every member of the
  /// unranked, unfiltered g_u, counted from the CSR lists without building
  /// g_u. `members` receives the members in BuildInto's local-id order (u
  /// first, then V_L, then V_R) and `degrees` their degrees, so u's is
  /// k-1. Returns |V_L|, u included. Each member-member edge is read once,
  /// from its lower id, as in the unranked BuildInto: O(Σ_{x ∈ N(u)} d(x))
  /// time and O(k) space, with no k×k rows.
  uint32_t MemberDegrees(VertexId u, std::vector<VertexId>* members,
                         std::vector<uint32_t>* degrees);

  /// Appends to `out` the neighbours in g_u of member x, u excluded, where
  /// u is the vertex of the last MemberDegrees call and no build has run
  /// since. O(d(x)).
  void MemberNeighbors(VertexId x, std::vector<VertexId>* out) const;

 private:
  /// Stamps the members of g_u (see BuildInto for `rank` and `alive`)
  /// with their local ids and writes them to `members`, u first. Returns
  /// |V_L|, u included.
  uint32_t StampMembers(VertexId u, const uint32_t* rank,
                        const uint8_t* alive, std::vector<VertexId>* members);

  /// The shared out-lists if built under `rank`, else the builder's own,
  /// rebuilt if they were last built under another array.
  const RankedOutLists& OutListsFor(const uint32_t* rank);

  const SignedGraph& graph_;
  const RankedOutLists* shared_;
  RankedOutLists own_;
  // old vertex id -> local id, valid only when stamp matches.
  std::vector<uint32_t> local_id_;
  std::vector<uint32_t> stamp_;
  uint32_t current_stamp_ = 0;
  // |V_L| of the members stamped by the last MemberDegrees call.
  uint32_t stamped_left_ = 0;
};

}  // namespace mbc

#endif  // MBC_DICHROMATIC_NETWORK_BUILDER_H_
