// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_heu.h"

#include <algorithm>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/random.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"
#include "src/pf/pdecompose.h"

namespace mbc {
namespace {

/// Alternating-side greedy growth (Algorithm 3 Lines 5-7) from the current
/// clique state. Consumes `*candidates`; members join `*members` and the
/// side counters. Without `rng` the first max-degree candidate (ascending
/// local id) wins — the paper's deterministic rule. With `rng`, ties among
/// max-degree candidates of the chosen side break uniformly at random (the
/// local-search move randomization); `ties` is caller-owned scratch.
void GrowAlternating(const DichromaticGraph& g, Bitset* candidates,
                     Bitset* members, size_t* left_size, size_t* right_size,
                     Rng* rng, std::vector<uint32_t>* ties,
                     ExecutionContext* exec) {
  const Bitset& left_mask = g.LeftMask();
  while (candidates->Any()) {
    if (exec != nullptr && exec->Checkpoint()) return;
    const size_t left_avail = candidates->CountAnd(left_mask);
    const size_t total_avail = candidates->Count();
    const size_t right_avail = total_avail - left_avail;

    // Algorithm 3 Lines 5-7: pick from the right side when the left side is
    // exhausted or already at least as large as the right side.
    const bool pick_right =
        left_avail == 0 || (right_avail != 0 && *left_size >= *right_size);

    uint32_t best = 0;
    uint32_t best_degree = 0;
    bool found = false;
    if (rng != nullptr) ties->clear();
    candidates->ForEach([&](size_t v) {
      const bool is_left = left_mask.Test(v);
      if (pick_right == is_left) return;
      const uint32_t degree =
          g.DegreeWithin(static_cast<uint32_t>(v), *candidates);
      if (!found || degree > best_degree) {
        found = true;
        best = static_cast<uint32_t>(v);
        best_degree = degree;
        if (rng != nullptr) {
          ties->clear();
          ties->push_back(best);
        }
      } else if (rng != nullptr && degree == best_degree) {
        ties->push_back(static_cast<uint32_t>(v));
      }
    });
    MBC_CHECK(found);
    if (rng != nullptr && ties->size() > 1) {
      best = (*ties)[rng->NextBounded(ties->size())];
    }

    members->Set(best);
    (g.IsLeft(best) ? *left_size : *right_size) += 1;
    *candidates &= g.AdjacencyOf(best);
    candidates->Reset(best);
  }
}

/// Turns a member bitset of `net` into a canonical BalancedClique in the
/// ids of the graph the network was built from.
BalancedClique MaterializeLocal(const DichromaticNetwork& net,
                                const Bitset& members) {
  BalancedClique result;
  members.ForEach([&](size_t local) {
    auto& side = net.graph.IsLeft(local) ? result.left : result.right;
    side.push_back(net.to_original[local]);
  });
  result.Canonicalize();
  return result;
}

/// The anchor pool, deduplicated in first-seen order (the pool is tiny).
/// The paper anchors at the vertex with the largest min{d+(u), d-(u)}. We
/// additionally try the vertices maximizing d+, d- and the total degree: a
/// large balanced clique with skewed sides (e.g. TripAdvisor's 45|1871
/// optimum) is anchored by a big-d+ or big-d- member rather than a
/// balanced one, and a greedy run costs only O(m). The raw-degree anchors
/// can all be "saturated hubs" whose neighborhoods hold no large balanced
/// clique, so the vertex of maximum polar-core number pn (Lemma 5, the
/// principled anchor for a *balanced* core) rides along; one O(m)
/// decomposition buys it. Then the last `degeneracy_anchors` vertices of
/// the peeling order: they live in the region of highest core numbers,
/// the natural place to grow a large dichromatic neighborhood.
std::vector<VertexId> AnchorPool(const SignedGraph& graph,
                                 uint32_t degeneracy_anchors) {
  const VertexId n = graph.NumVertices();
  VertexId by_min = 0;
  VertexId by_pos = 0;
  VertexId by_neg = 0;
  VertexId by_total = 0;
  uint32_t best_min = 0;
  uint32_t best_pos = 0;
  uint32_t best_neg = 0;
  uint32_t best_total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t pos = graph.PositiveDegree(v);
    const uint32_t neg = graph.NegativeDegree(v);
    if (std::min(pos, neg) > best_min) {
      best_min = std::min(pos, neg);
      by_min = v;
    }
    if (pos > best_pos) {
      best_pos = pos;
      by_pos = v;
    }
    if (neg > best_neg) {
      best_neg = neg;
      by_neg = v;
    }
    if (pos + neg > best_total) {
      best_total = pos + neg;
      by_total = v;
    }
  }
  const PolarDecomposition polar = PDecompose(graph);
  VertexId by_polar = 0;
  uint32_t best_pn = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (polar.polar_core_number[v] > best_pn) {
      best_pn = polar.polar_core_number[v];
      by_polar = v;
    }
  }
  std::vector<VertexId> anchors = {by_min, by_pos, by_neg, by_total,
                                   by_polar};
  if (degeneracy_anchors > 0) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
    const size_t take = std::min<size_t>(degeneracy_anchors, n);
    for (size_t i = 0; i < take; ++i) {
      anchors.push_back(degeneracy.order[n - 1 - i]);
    }
  }
  std::vector<VertexId> unique;
  unique.reserve(anchors.size());
  for (VertexId anchor : anchors) {
    if (std::find(unique.begin(), unique.end(), anchor) == unique.end()) {
      unique.push_back(anchor);
    }
  }
  return unique;
}

}  // namespace

BalancedClique MbcHeuristic(const SignedGraph& graph, uint32_t tau,
                            ExecutionContext* exec) {
  MbcHeuOptions options;
  options.local_search_iterations = 0;
  options.degeneracy_anchors = 0;
  options.exec = exec;
  return MbcHeuristicSearch(graph, tau, options).clique;
}

MbcHeuResult MbcHeuristicSearch(const SignedGraph& graph, uint32_t tau,
                                const MbcHeuOptions& options) {
  MbcHeuResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  const auto finish = [&]() -> MbcHeuResult& {
    result.stats.interrupt_reason = exec->reason();
    return result;
  };
  if (graph.NumVertices() == 0) return finish();

  const std::vector<VertexId> anchors =
      AnchorPool(graph, options.degeneracy_anchors);

  // ---- Per-anchor state, hoisted and arena-backed: after the largest
  // network has been seen, an entire anchor (greedy + every local-search
  // round) runs without heap allocation.
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork net;
  SearchArena arena;
  Rng rng;
  std::vector<uint32_t> ties;
  BalancedClique best;

  // Greedy-only runs build each anchor's network around its first pick
  // (see below); local search may leave that neighbourhood, so it gets
  // the whole g_a.
  const bool greedy_only = options.local_search_iterations == 0;
  std::vector<uint8_t> alive(greedy_only ? graph.NumVertices() : 0, 0);
  std::vector<VertexId> ga_members;
  std::vector<uint32_t> ga_degrees;
  std::vector<VertexId> kept;

  bool first_anchor = true;
  for (VertexId anchor : anchors) {
    // The first anchor's greedy always runs to completion: it is the O(m)
    // fallback tier, so even an expired or cancelled context yields a valid
    // lower bound rather than nothing (the interrupt still reports through
    // stats). The probe between anchors bounds the overrun at one pass.
    ExecutionContext* grow_exec = first_anchor ? nullptr : exec;
    first_anchor = false;

    // Algorithm 3 reads the whole g_a for its first pick only: every later
    // candidate is a g_a-neighbour of that pick. The greedy-only sweep
    // makes the first pick from member degrees counted on the CSR lists,
    // then builds the network over {anchor, pick} ∪ N_{g_a}(pick) alone.
    // The `alive` filter keeps BuildInto's member order and the induced
    // degrees are those of g_a, so every later pick and tie-break is the
    // one the whole g_a would give. The probe before the first pick is the
    // one GrowAlternating would make.
    VertexId first_pick = anchor;  // anchor = no pick
    if (greedy_only) {
      const uint32_t num_left =
          builder.MemberDegrees(anchor, &ga_members, &ga_degrees);
      const uint32_t ga_size = static_cast<uint32_t>(ga_members.size());
      kept.assign(1, anchor);
      if (ga_size > 1 && !(grow_exec != nullptr && grow_exec->Checkpoint())) {
        // The right side if it has a member, else the left side; the first
        // maximum degree wins.
        uint32_t pick = num_left < ga_size ? num_left : 1;
        for (uint32_t i = pick + 1; i < ga_size; ++i) {
          if (ga_degrees[i] > ga_degrees[pick]) pick = i;
        }
        first_pick = ga_members[pick];
        kept.push_back(first_pick);
        builder.MemberNeighbors(first_pick, &kept);
      }
      for (VertexId v : kept) alive[v] = 1;
      builder.BuildInto(anchor, nullptr, alive.data(), &net);
      for (VertexId v : kept) alive[v] = 0;
    } else {
      builder.BuildInto(anchor, nullptr, nullptr, &net);
    }
    const DichromaticGraph& g = net.graph;
    const uint32_t k = g.NumVertices();
    arena.BindNetwork(k);
    SearchArena::Frame& frame = arena.FrameAt(0);
    SearchArena::Frame& scratch = arena.FrameAt(1);
    Bitset& members = frame.cand;       // current clique
    Bitset& candidates = frame.pool;    // growth frontier
    Bitset& anchor_best = frame.remaining;
    Bitset& backup = scratch.cand;      // revert state for rejected moves

    // Greedy seed (Algorithm 3): grow from the anchor, local vertex 0, an
    // L-vertex; candidates are the vertices adjacent to every member.
    members.Reshape(k);
    members.Set(0);
    size_t left_size = 1;
    size_t right_size = 0;
    candidates.CopyFrom(g.AdjacencyOf(0));
    candidates.Reset(0);
    if (first_pick != anchor) {
      const uint32_t p = static_cast<uint32_t>(
          std::find(net.to_original.begin(), net.to_original.end(),
                    first_pick) -
          net.to_original.begin());
      members.Set(p);
      (g.IsLeft(p) ? left_size : right_size) += 1;
      candidates &= g.AdjacencyOf(p);
      candidates.Reset(p);
    }
    GrowAlternating(g, &candidates, &members, &left_size, &right_size,
                    /*rng=*/nullptr, /*ties=*/nullptr, grow_exec);
    result.stats.greedy_size =
        std::max(result.stats.greedy_size, left_size + right_size);

    size_t anchor_best_size = 0;
    if (std::min(left_size, right_size) >= tau) {
      anchor_best.CopyFrom(members);
      anchor_best_size = left_size + right_size;
    } else {
      anchor_best.Reshape(k);
    }

    // ---- Local search: seeded drop-and-regrow. Each round removes one
    // random member, regrows with randomized degree tie-breaks (the
    // removed vertex tabu for the round), then closes with the
    // deterministic add pass — a (1, ≥1) swap when the regrowth finds a
    // different filling, a no-op plateau step otherwise. The current
    // state never shrinks (worse moves revert), so the per-anchor best is
    // monotone in the iteration count and a shorter run is a prefix of a
    // longer one under the same seed.
    rng.Reseed(options.seed ^
               (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(anchor) + 1)));
    bool interrupted = false;
    for (uint32_t iter = 0; iter < options.local_search_iterations; ++iter) {
      if (exec->Checkpoint()) {
        interrupted = true;
        break;
      }
      const size_t size_before = left_size + right_size;
      if (size_before == 0 || size_before >= k) break;  // nothing to swap
      ++result.stats.ls_iterations;
      backup.CopyFrom(members);
      const size_t backup_left = left_size;
      const size_t backup_right = right_size;

      // Drop a uniformly random member.
      size_t drop_index = rng.NextBounded(size_before);
      uint32_t drop = 0;
      members.ForEach([&](size_t v) {
        if (drop_index == 0) drop = static_cast<uint32_t>(v);
        --drop_index;
      });
      members.Reset(drop);
      (g.IsLeft(drop) ? left_size : right_size) -= 1;

      // Regrow (drop is tabu) with randomized tie-breaks.
      candidates.ReshapeUninit(k);
      candidates.SetAll();
      members.ForEach(
          [&](size_t m) { candidates &= g.AdjacencyOf(m); });
      candidates.AndNot(members);
      candidates.Reset(drop);
      GrowAlternating(g, &candidates, &members, &left_size, &right_size, &rng,
                      &ties, exec);

      // Closing add pass: the tabu lifts, so `drop` (or anything the new
      // filling made compatible) can re-join deterministically.
      candidates.ReshapeUninit(k);
      candidates.SetAll();
      members.ForEach(
          [&](size_t m) { candidates &= g.AdjacencyOf(m); });
      candidates.AndNot(members);
      GrowAlternating(g, &candidates, &members, &left_size, &right_size,
                      /*rng=*/nullptr, /*ties=*/nullptr, exec);

      const size_t size_after = left_size + right_size;
      if (size_after < size_before) {
        // Worse move: revert (plateau moves — equal size, different
        // members — are kept, they are how the search drifts).
        members.CopyFrom(backup);
        left_size = backup_left;
        right_size = backup_right;
        continue;
      }
      if (std::min(left_size, right_size) >= tau &&
          size_after > anchor_best_size) {
        anchor_best.CopyFrom(members);
        anchor_best_size = size_after;
        ++result.stats.ls_improvements;
      }
    }

    if (anchor_best_size > best.size()) {
      best = MaterializeLocal(net, anchor_best);
    }
    if (interrupted || exec->Probe()) break;
  }

  result.clique = std::move(best);
  return finish();
}

}  // namespace mbc
