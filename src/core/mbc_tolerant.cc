// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_tolerant.h"

#include <algorithm>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/core/mbc_star.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

/// One ego-network tolerant search. Locals index [0, c): 0 is the ego u,
/// 1.. are its higher-ranked (any-sign) neighbors in ascending vertex id.
/// The ego is pinned to the left side — a side swap never changes the
/// frustration count, so every feasible assignment has a mirror with
/// u ∈ C_L and searching that half-space is exhaustive.
class TolerantKernel {
 public:
  TolerantKernel(const SignedGraph& graph, uint32_t tau, uint32_t tolerance,
                 ExecutionContext* exec, MbcTolerantStats* stats)
      : graph_(graph),
        tau_(tau),
        tolerance_(tolerance),
        exec_(exec),
        stats_(stats),
        local_of_(graph.NumVertices(), -1) {}

  size_t best_size() const { return best_size_; }
  void SeedIncumbent(BalancedClique clique, uint32_t frustrated) {
    best_size_ = clique.size();
    best_ = std::move(clique);
    best_frustrated_ = frustrated;
  }

  /// Lower bound on any improving clique's size: it must beat both the
  /// incumbent and the 2τ floor every feasible clique satisfies.
  size_t PruneBound() const {
    const size_t tau_floor = tau_ > 0 ? 2 * static_cast<size_t>(tau_) - 1 : 0;
    return std::max(best_size_, tau_floor);
  }

  /// Searches the ego network of `u` restricted to `higher` (the
  /// higher-ranked any-sign neighbors of u, ascending).
  void SearchEgo(VertexId u, const std::vector<VertexId>& higher) {
    const uint32_t c = static_cast<uint32_t>(higher.size()) + 1;
    c_ = c;
    locals_.clear();
    locals_.push_back(u);
    locals_.insert(locals_.end(), higher.begin(), higher.end());
    for (uint32_t i = 0; i < c; ++i) local_of_[locals_[i]] = i;

    // Symmetric sign-split adjacency over local ids.
    if (pos_rows_.size() < c) {
      pos_rows_.resize(c);
      neg_rows_.resize(c);
      any_rows_.resize(c);
    }
    for (uint32_t i = 0; i < c; ++i) {
      pos_rows_[i].Reshape(c);
      neg_rows_[i].Reshape(c);
    }
    for (uint32_t i = 0; i < c; ++i) {
      const VertexId v = locals_[i];
      for (VertexId w : graph_.PositiveNeighbors(v)) {
        const int32_t j = local_of_[w];
        if (j >= 0) pos_rows_[i].Set(static_cast<size_t>(j));
      }
      for (VertexId w : graph_.NegativeNeighbors(v)) {
        const int32_t j = local_of_[w];
        if (j >= 0) neg_rows_[i].Set(static_cast<size_t>(j));
      }
    }
    for (uint32_t i = 0; i < c; ++i) {
      any_rows_[i].CopyFrom(pos_rows_[i]);
      any_rows_[i] |= neg_rows_[i];
    }

    // Iterative peel: every member of an improving clique (> PruneBound()
    // vertices) has ≥ PruneBound() any-sign neighbors among the other
    // members, so vertices below that in-network degree can never take
    // part — remove them to a fixpoint. This is the tolerant analogue of
    // MBC*'s ego-network core reduction; without it sparse power-law
    // graphs explode the dive.
    alive_.Reshape(c);
    alive_.SetAll();
    bool peeled = true;
    while (peeled) {
      peeled = false;
      removals_.clear();
      alive_.ForEach([&](size_t i) {
        if (any_rows_[i].CountAnd(alive_) < PruneBound()) {
          removals_.push_back(static_cast<uint32_t>(i));
        }
      });
      for (uint32_t i : removals_) {
        alive_.Reset(i);
        peeled = true;
      }
      if (!alive_.Test(0)) break;  // the ego itself was peeled
    }
    if (!alive_.Test(0) || alive_.Count() <= PruneBound()) {
      for (uint32_t i = 0; i < c; ++i) local_of_[locals_[i]] = -1;
      return;
    }

    arena_.BindNetwork(c);
    // Depth never exceeds the member count, so c + 2 frames of knapsack
    // scratch cover the whole dive; sized here because a resize mid-dive
    // would dangle the per-frame references held by ancestors.
    if (cost_of_.size() < c + 2) {
      cost_of_.resize(c + 2);
      cost_l_of_.resize(c + 2);
      cost_r_of_.resize(c + 2);
      hist_.resize(c + 2);
      hist_l_.resize(c + 2);
      hist_r_.resize(c + 2);
    }
    SearchArena::Frame& root = arena_.FrameAt(0);
    root.pool.Reshape(c);       // left members
    root.remaining.Reshape(c);  // right members
    root.pool.Set(0);           // the ego, pinned left
    root.cand.AssignAnd(any_rows_[0], alive_);
    root.cand.Reset(0);
    ++stats_->num_networks_built;
    Dive(/*depth=*/0, /*left=*/1, /*right=*/0, /*frustration=*/0);

    for (uint32_t i = 0; i < c; ++i) local_of_[locals_[i]] = -1;
  }

  MbcTolerantResult TakeResult() && {
    MbcTolerantResult result;
    result.clique = std::move(best_);
    result.clique.Canonicalize();
    result.frustrated_edges = best_frustrated_;
    return result;
  }

 private:
  /// Frustration a candidate pays for joining the given side: the negative
  /// edges it closes inside that side plus the positive edges it closes
  /// toward the other side.
  uint32_t JoinCost(uint32_t v, const Bitset& same_side,
                    const Bitset& other_side) const {
    return static_cast<uint32_t>(neg_rows_[v].CountAnd(same_side) +
                                 pos_rows_[v].CountAnd(other_side));
  }

  void Record(const SearchArena::Frame& frame, size_t left, size_t right,
              uint32_t frustration) {
    if (left < tau_ || right < tau_) return;
    if (left + right <= best_size_) return;
    best_size_ = left + right;
    best_frustrated_ = frustration;
    best_.left.clear();
    best_.right.clear();
    frame.pool.ForEach([&](size_t i) { best_.left.push_back(locals_[i]); });
    frame.remaining.ForEach(
        [&](size_t i) { best_.right.push_back(locals_[i]); });
  }

  void Dive(size_t depth, size_t left, size_t right, uint32_t frustration) {
    ++stats_->branches;
    if (exec_->Checkpoint()) return;
    SearchArena::Frame& frame = arena_.FrameAt(depth);
    Record(frame, left, right, frustration);

    const uint32_t budget = tolerance_ - frustration;
    std::vector<uint32_t>& cost_of = cost_of_[depth];
    std::vector<uint32_t>& cost_l_of = cost_l_of_[depth];
    std::vector<uint32_t>& cost_r_of = cost_r_of_[depth];
    std::vector<uint32_t>& hist = hist_[depth];
    std::vector<uint32_t>& hist_l = hist_l_[depth];
    std::vector<uint32_t>& hist_r = hist_r_[depth];
    cost_of.resize(c_);
    cost_l_of.resize(c_);
    cost_r_of.resize(c_);
    // A join cost never exceeds the net size, so buckets cap at c_ even
    // for huge budgets. Costs above the budget park in the overflow
    // sentinel bucket, excluded from the bounds.
    const size_t buckets = std::min<size_t>(budget, c_) + 1;
    hist.assign(buckets + 1, 0);
    hist_l.assign(buckets + 1, 0);
    hist_r.assign(buckets + 1, 0);
    const uint32_t overflow = static_cast<uint32_t>(buckets);

    // Budget filter: a candidate's min-side join cost against the frozen
    // (pool, remaining) of this frame is a lower bound on what it pays in
    // any descendant (costs only grow as members accumulate — every
    // current member keeps contributing its frustrated edge). Candidates
    // whose cheaper side already overflows the budget can never join;
    // the rest are bucketed by min-cost for the knapsack bound below.
    removals_.clear();
    zero_left_.Reshape(c_);
    zero_right_.Reshape(c_);
    frame.cand.ForEach([&](size_t v) {
      const uint32_t cost_l = JoinCost(static_cast<uint32_t>(v), frame.pool,
                                       frame.remaining);
      const uint32_t cost_r = JoinCost(static_cast<uint32_t>(v),
                                       frame.remaining, frame.pool);
      const uint32_t min_cost = std::min(cost_l, cost_r);
      if (min_cost > budget) {
        removals_.push_back(static_cast<uint32_t>(v));
      } else {
        cost_of[v] = min_cost;
        ++hist[min_cost];
        // Per-side buckets: a candidate joins the left side only by
        // paying cost_l, so sides bound independently of the min-cost
        // pool. Costs over the budget go to the overflow bucket.
        cost_l_of[v] = cost_l > budget ? overflow : cost_l;
        cost_r_of[v] = cost_r > budget ? overflow : cost_r;
        ++hist_l[cost_l_of[v]];
        ++hist_r[cost_r_of[v]];
        // Every candidate has an edge to the ego (∈ pool), so at most one
        // side is free — a zero-cost candidate's side is forced.
        if (min_cost == 0) {
          (cost_l == 0 ? zero_left_ : zero_right_).Set(v);
        }
      }
    });
    for (uint32_t v : removals_) frame.cand.Reset(v);

    // Coloring bound over the zero-cost candidates. Any extension E
    // splits into members paying ≥ 1 frustrated edge against the current
    // sides (≤ budget of them) and members joining for free — which sit
    // on their forced side, so compatibility of a free pair is decided:
    // adjacent and sign-consistent for those sides. E's free part is a
    // budget-defective clique of that compatibility graph, so
    // |E| ≤ (greedy-coloring classes of the zeros) + budget. This is the
    // bound that tames dense near-clique cores, where almost every
    // candidate is a knapsack zero but the signs keep compatible sets
    // small. Computed once per node; it stays valid as candidates pop.
    size_t num_classes = 0;
    const auto color_side = [&](const Bitset& side, bool is_left) {
      side.ForEach([&](size_t v) {
        compat_.AssignAnd(pos_rows_[v], is_left ? zero_left_ : zero_right_);
        compat_tmp_.AssignAnd(neg_rows_[v],
                              is_left ? zero_right_ : zero_left_);
        compat_ |= compat_tmp_;
        size_t cls = 0;
        while (cls < num_classes && color_classes_[cls].Intersects(compat_)) {
          ++cls;
        }
        if (cls == num_classes) {
          if (color_classes_.size() == num_classes) {
            color_classes_.emplace_back();
          }
          color_classes_[cls].Reshape(c_);
          ++num_classes;
        }
        color_classes_[cls].Set(v);
      });
    };
    color_side(zero_left_, /*is_left=*/true);
    color_side(zero_right_, /*is_left=*/false);
    const size_t q_color = num_classes + budget;

    // Knapsack over a cost histogram: every counted member pays at least
    // its bucketed cost and the total must fit the budget, so the greedy
    // cheapest-first packing bounds how many can ever join.
    const auto knapsack = [&](const std::vector<uint32_t>& h) {
      size_t n = h[0];
      uint32_t spare = budget;
      for (uint32_t cost = 1; cost < overflow; ++cost) {
        if (h[cost] == 0 || spare < cost) continue;
        const uint32_t take = std::min<uint32_t>(h[cost], spare / cost);
        n += take;
        spare -= take * cost;
      }
      return n;
    };

    // Frame references stay valid across FrameAt calls (deque-backed).
    SearchArena::Frame& child = arena_.FrameAt(depth + 1);
    while (true) {
      // Three extension bounds, cheapest-wins: the min-cost knapsack
      // (tames budget-starved nodes), the zero-coloring bound (tames
      // mixed-sign dense cores), and the per-side knapsack sum. The
      // per-side bounds also drive the τ check — the decisive prune in
      // sign-skewed dense cores, where a huge one-sided positive clique
      // extends freely but the other side can never reach τ.
      size_t q = knapsack(hist);
      const size_t ql = knapsack(hist_l);
      const size_t qr = knapsack(hist_r);
      q = std::min({q, q_color, ql + qr});
      // Size bound: a tolerant clique is still an underlying clique, so
      // only q of the closed candidates can extend it.
      if (left + right + q <= PruneBound()) return;
      // τ-feasibility: joining a side pays that side's cost, so each
      // side must be reachable on its own budgeted candidates.
      if (left + ql < tau_ || right + qr < tau_) return;
      if (q == 0) return;

      const uint32_t v = static_cast<uint32_t>(frame.cand.FindFirst());
      const uint32_t cost_l = JoinCost(v, frame.pool, frame.remaining);
      const uint32_t cost_r = JoinCost(v, frame.remaining, frame.pool);
      frame.cand.Reset(v);
      --hist[cost_of[v]];
      --hist_l[cost_l_of[v]];
      --hist_r[cost_r_of[v]];

      if (frustration + cost_l <= tolerance_) {
        child.pool.CopyFrom(frame.pool);
        child.pool.Set(v);
        child.remaining.CopyFrom(frame.remaining);
        child.cand.AssignAnd(frame.cand, any_rows_[v]);
        Dive(depth + 1, left + 1, right, frustration + cost_l);
        if (exec_->Interrupted()) return;
      }
      if (frustration + cost_r <= tolerance_) {
        child.pool.CopyFrom(frame.pool);
        child.remaining.CopyFrom(frame.remaining);
        child.remaining.Set(v);
        child.cand.AssignAnd(frame.cand, any_rows_[v]);
        Dive(depth + 1, left, right + 1, frustration + cost_r);
        if (exec_->Interrupted()) return;
      }
      // Exclude branch: loop continues with v dropped from this node.
    }
  }

  const SignedGraph& graph_;
  const uint32_t tau_;
  const uint32_t tolerance_;
  ExecutionContext* exec_;
  MbcTolerantStats* stats_;

  SearchArena arena_;
  std::vector<int32_t> local_of_;
  std::vector<VertexId> locals_;
  std::vector<Bitset> pos_rows_, neg_rows_, any_rows_;
  Bitset alive_;
  std::vector<uint32_t> removals_;
  uint32_t c_ = 0;
  // Per-depth scratch for the knapsack bound (min-cost per candidate and
  // its bucket histogram); sized lazily, reused across ego networks.
  std::vector<std::vector<uint32_t>> cost_of_, cost_l_of_, cost_r_of_;
  std::vector<std::vector<uint32_t>> hist_, hist_l_, hist_r_;
  // Node-entry scratch for the zero-cost coloring bound; consumed before
  // any recursion, so sharing one copy across depths is safe.
  Bitset zero_left_, zero_right_, compat_, compat_tmp_;
  std::vector<Bitset> color_classes_;

  BalancedClique best_;
  size_t best_size_ = 0;
  uint32_t best_frustrated_ = 0;
};

}  // namespace

std::optional<uint32_t> CountFrustratedEdges(const SignedGraph& graph,
                                             const BalancedClique& clique) {
  struct Member {
    VertexId v;
    bool left;
  };
  std::vector<Member> members;
  members.reserve(clique.size());
  for (VertexId v : clique.left) members.push_back({v, true});
  for (VertexId v : clique.right) members.push_back({v, false});
  for (const Member& m : members) {
    if (m.v >= graph.NumVertices()) return std::nullopt;
  }
  uint32_t frustrated = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      const VertexId a = members[i].v;
      const VertexId b = members[j].v;
      if (a == b) return std::nullopt;
      const auto pos = graph.PositiveNeighbors(a);
      const auto neg = graph.NegativeNeighbors(a);
      const bool positive = std::binary_search(pos.begin(), pos.end(), b);
      const bool negative =
          !positive && std::binary_search(neg.begin(), neg.end(), b);
      if (!positive && !negative) return std::nullopt;  // not a clique
      const bool same_side = members[i].left == members[j].left;
      if (same_side != positive) ++frustrated;
    }
  }
  return frustrated;
}

MbcTolerantResult MaxTolerantBalancedClique(const SignedGraph& graph,
                                            uint32_t tau, uint32_t tolerance,
                                            const MbcTolerantOptions& options) {
  if (tolerance == 0 && options.delegate_exact) {
    // k = 0 *is* the exact problem; MBC* brings the sign-aware prunings
    // and its witness is byte-identical to a direct exact query.
    MbcStarOptions star;
    star.initial_clique = options.initial_clique;
    star.exec = options.exec;
    MbcStarResult exact = MaxBalancedCliqueStar(graph, tau, star);
    MbcTolerantResult result;
    result.clique = std::move(exact.clique);
    result.frustrated_edges = 0;
    result.stats.branches = exact.stats.mdc_branches;
    result.stats.num_networks_built = exact.stats.num_networks_built;
    result.stats.interrupt_reason = exact.stats.interrupt_reason;
    return result;
  }

  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  MbcTolerantStats stats;
  TolerantKernel kernel(graph, tau, tolerance, exec, &stats);
  if (options.initial_clique != nullptr && !options.initial_clique->empty()) {
    const std::optional<uint32_t> frustrated =
        CountFrustratedEdges(graph, *options.initial_clique);
    MBC_CHECK(frustrated.has_value());
    MBC_CHECK_LE(*frustrated, tolerance);
    MBC_CHECK(options.initial_clique->SatisfiesThreshold(tau));
    BalancedClique seed = *options.initial_clique;
    seed.Canonicalize();
    kernel.SeedIncumbent(std::move(seed), *frustrated);
  } else if (options.seed_exact) {
    MbcStarOptions star;
    star.exec = exec;
    MbcStarResult exact = MaxBalancedCliqueStar(graph, tau, star);
    if (!exact.clique.empty() && exact.clique.SatisfiesThreshold(tau)) {
      kernel.SeedIncumbent(std::move(exact.clique), /*frustrated=*/0);
    }
  }

  const VertexId n = graph.NumVertices();
  if (n > 0 && !exec->Probe()) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
    std::vector<VertexId> higher;
    for (size_t idx = degeneracy.order.size(); idx-- > 0;) {
      if (exec->Probe()) break;
      const VertexId u = degeneracy.order[idx];
      // An improving clique has > PruneBound() vertices, all of underlying
      // degree ≥ PruneBound() within it, so u needs core number ≥ bound.
      if (static_cast<size_t>(degeneracy.core_number[u]) <
          kernel.PruneBound()) {
        continue;
      }
      higher.clear();
      const uint32_t rank_u = degeneracy.rank[u];
      for (VertexId w : graph.PositiveNeighbors(u)) {
        if (degeneracy.rank[w] > rank_u) higher.push_back(w);
      }
      for (VertexId w : graph.NegativeNeighbors(u)) {
        if (degeneracy.rank[w] > rank_u) higher.push_back(w);
      }
      std::sort(higher.begin(), higher.end());
      if (higher.size() + 1 <= kernel.PruneBound()) continue;
      kernel.SearchEgo(u, higher);
    }
  }

  MbcTolerantResult result = std::move(kernel).TakeResult();
  result.stats = stats;
  result.stats.interrupt_reason = exec->reason();
  return result;
}

}  // namespace mbc
