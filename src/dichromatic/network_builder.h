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

/// Builds dichromatic networks for successive vertices of one signed graph.
/// Keeps O(n) scratch plus, once a ranked build has run, one orientation
/// bit per CSR entry (2|E| bits).
///
/// Cost model. Each member-member edge of g_u is found once, from its lower
/// endpoint:
///   * ranked builds (rank non-null) walk only the orientation bits of each
///     member's lists, a 64-bit word at a time, so a member x costs
///     deg(x)/64 word reads plus its higher-ranked neighbours — at most the
///     degeneracy when `rank` is a degeneracy order, even for a hub;
///   * unranked builds scan only the part of each member's id-sorted lists
///     above the member's own id, found with one binary search.
/// Either way u's own lists are read once to collect the members.
///
/// One rank array per builder: the orientation bits are built in O(|E|) on
/// the first ranked call and kept for later ranked calls that pass the same
/// `rank` pointer; a call with a different pointer rebuilds them, at
/// O(|E|) per switch. The bits only decide which endpoint offers an edge,
/// and any bits built for this graph offer every edge exactly once, so
/// bits left over from other rank contents at the same address cost time,
/// never correctness. Adjacent vertices must have distinct ranks (a
/// degeneracy order or any permutation of ids qualifies).
class DichromaticNetworkBuilder {
 public:
  /// `graph` must outlive the builder.
  explicit DichromaticNetworkBuilder(const SignedGraph& graph);

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

  /// Points the orientation bits at `rank`, rebuilding them if the
  /// builder last oriented by another array.
  void OrientBy(const uint32_t* rank);

  const SignedGraph& graph_;
  // old vertex id -> local id, valid only when stamp matches.
  std::vector<uint32_t> local_id_;
  std::vector<uint32_t> stamp_;
  uint32_t current_stamp_ = 0;
  // |V_L| of the members stamped by the last MemberDegrees call.
  uint32_t stamped_left_ = 0;
  // Orientation bits: bit e of pos_up_ (neg_up_) is set when the
  // neighbour at CSR entry e of the positive (negative) neighbour array
  // ranks above the owner of that list under `oriented_by_`.
  std::vector<uint64_t> pos_up_;
  std::vector<uint64_t> neg_up_;
  const uint32_t* oriented_by_ = nullptr;
};

}  // namespace mbc

#endif  // MBC_DICHROMATIC_NETWORK_BUILDER_H_
