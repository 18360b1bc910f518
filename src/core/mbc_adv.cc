// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_adv.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/bitset.h"
#include "src/core/mbc_heu.h"
#include "src/core/reductions.h"
#include "src/dichromatic/dichromatic_graph.h"
#include "src/dichromatic/reductions.h"
#include "src/dichromatic/signed_ego.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

// Branch-and-bound over one signed ego network.
class AdvSearcher {
 public:
  AdvSearcher(const SignedEgoNetwork& net, ExecutionContext* exec)
      : net_(net), exec_(exec) {}

  // current clique = {u}; returns true if a clique better than lower_bound
  // satisfying the thresholds was found.
  bool Solve(const Bitset& p_l, const Bitset& p_r, int32_t tau_l,
             int32_t tau_r, size_t lower_bound,
             std::vector<std::pair<uint32_t, bool>>* best) {
    best_size_ = lower_bound;
    found_ = false;
    current_.clear();
    current_.emplace_back(0u, true);  // u, left side
    Recurse(p_l, p_r, tau_l, tau_r);
    if (found_) *best = best_;
    return found_;
  }

  uint64_t branches() const { return branches_; }

 private:
  void Recurse(Bitset p_l, Bitset p_r, int32_t tau_l, int32_t tau_r) {
    ++branches_;
    if (exec_->Checkpoint()) timed_out_ = true;
    if (timed_out_) return;

    if (current_.size() > best_size_ && tau_l <= 0 && tau_r <= 0) {
      best_ = current_;
      best_size_ = current_.size();
      found_ = true;
    }

    // Degree-based pruning on the unsigned skeleton (signs discarded).
    Bitset cand = p_l | p_r;
    if (best_size_ > current_.size()) {
      cand = KCoreWithin(net_.skeleton, cand,
                         static_cast<uint32_t>(best_size_ - current_.size()));
      p_l &= cand;
      p_r &= cand;
    }
    const size_t left_avail = p_l.Count();
    const size_t right_avail = p_r.Count();
    if ((tau_l > 0 && left_avail < static_cast<size_t>(tau_l)) ||
        (tau_r > 0 && right_avail < static_cast<size_t>(tau_r))) {
      return;
    }
    if (cand.None()) return;
    if (current_.size() + left_avail + right_avail <= best_size_) return;
    // Coloring bound, also on the unsigned skeleton. Conflicting edges
    // inflate the color count, which is exactly why this bound is weak
    // (the paper's Figure 3 example).
    const uint32_t needed =
        best_size_ > current_.size()
            ? static_cast<uint32_t>(best_size_ - current_.size())
            : 0;
    if (current_.size() +
            ColoringBoundWithin(net_.skeleton, cand, needed) <=
        best_size_) {
      return;
    }

    Bitset pool(cand.capacity());
    if (tau_l > 0 && tau_r <= 0) {
      pool = p_l;
    } else if (tau_l <= 0 && tau_r > 0) {
      pool = p_r;
    } else {
      pool = cand;
    }

    while (pool.Any() && !timed_out_) {
      if (current_.size() + cand.Count() <= best_size_) return;
      uint32_t v = 0;
      uint32_t v_degree = 0;
      bool v_found = false;
      pool.ForEach([&](size_t w) {
        const uint32_t degree =
            net_.skeleton.DegreeWithin(static_cast<uint32_t>(w), cand);
        if (!v_found || degree < v_degree) {
          v_found = true;
          v = static_cast<uint32_t>(w);
          v_degree = degree;
        }
      });

      const bool to_left = p_l.Test(v);
      current_.emplace_back(v, to_left);
      if (to_left) {
        Recurse(p_l & net_.pos[v], p_r & net_.neg[v], tau_l - 1, tau_r);
      } else {
        Recurse(p_l & net_.neg[v], p_r & net_.pos[v], tau_l, tau_r - 1);
      }
      current_.pop_back();

      pool.Reset(v);
      cand.Reset(v);
      p_l.Reset(v);
      p_r.Reset(v);
    }
  }

  const SignedEgoNetwork& net_;
  ExecutionContext* const exec_;
  std::vector<std::pair<uint32_t, bool>> current_;  // (local id, is_left)
  std::vector<std::pair<uint32_t, bool>> best_;
  size_t best_size_ = 0;
  bool found_ = false;
  bool timed_out_ = false;
  uint64_t branches_ = 0;
};

}  // namespace

MbcAdvResult MaxBalancedCliqueAdv(const SignedGraph& graph, uint32_t tau,
                                  const MbcAdvOptions& options) {
  MbcAdvResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau);

  BalancedClique best;
  if (options.run_heuristic && reduced.graph.NumVertices() > 0) {
    best = MbcHeuristic(reduced.graph, tau, exec);
    best.MapToOriginal(reduced.to_original);
  }
  size_t prune_bound = best.size();
  if (tau >= 1) {
    prune_bound = std::max<size_t>(prune_bound, 2 * size_t{tau} - 1);
  }

  const std::vector<uint8_t> core_alive =
      KCoreMask(reduced.graph, static_cast<uint32_t>(prune_bound));
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < reduced.graph.NumVertices(); ++v) {
    if (core_alive[v]) keep.push_back(v);
  }
  SignedGraph::InducedResult cored = reduced.graph.InducedSubgraph(keep);
  const SignedGraph& work = cored.graph;
  std::vector<VertexId> to_input(work.NumVertices());
  for (VertexId v = 0; v < work.NumVertices(); ++v) {
    to_input[v] = reduced.to_original[cored.to_original[v]];
  }

  if (work.NumVertices() > 0) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(work);
    SignedEgoNetworkBuilder builder(work);
    for (auto it = degeneracy.order.rbegin(); it != degeneracy.order.rend();
         ++it) {
      if (exec->Probe()) break;
      const VertexId u = *it;
      // Cheap pre-check mirroring MBC*'s (network size bound from u's
      // higher-ranked degree).
      uint32_t higher = 0;
      for (VertexId v : work.PositiveNeighbors(u)) {
        higher += degeneracy.rank[v] > degeneracy.rank[u];
      }
      for (VertexId v : work.NegativeNeighbors(u)) {
        higher += degeneracy.rank[v] > degeneracy.rank[u];
      }
      if (static_cast<size_t>(higher) + 1 <= prune_bound) continue;

      SignedEgoNetwork net = builder.Build(u, degeneracy.rank.data());
      ++result.num_networks_built;
      const uint32_t k = net.skeleton.NumVertices();
      if (static_cast<size_t>(k) <= prune_bound) continue;

      // Degree-based pruning + coloring bound on the unsigned skeleton of
      // the full ego network (conflicting edges included).
      Bitset alive = net.skeleton.AllVertices();
      alive = KCoreWithin(net.skeleton, alive,
                          static_cast<uint32_t>(prune_bound));
      if (!alive.Test(0) || alive.Count() <= prune_bound) continue;
      if (ColoringBoundWithin(net.skeleton, alive,
                              static_cast<uint32_t>(prune_bound)) <=
          prune_bound) {
        continue;
      }

      Bitset p_l = net.pos[0] & alive;
      Bitset p_r = net.neg[0] & alive;
      AdvSearcher searcher(net, exec);
      std::vector<std::pair<uint32_t, bool>> solution;
      const bool improved =
          searcher.Solve(p_l, p_r, static_cast<int32_t>(tau) - 1,
                         static_cast<int32_t>(tau), prune_bound, &solution);
      result.branches += searcher.branches();
      if (improved) {
        BalancedClique clique;
        for (const auto& [local, is_left] : solution) {
          (is_left ? clique.left : clique.right)
              .push_back(to_input[net.to_original[local]]);
        }
        clique.Canonicalize();
        best = std::move(clique);
        prune_bound = best.size();
      }
      if (exec->Interrupted()) break;
    }
  }

  result.interrupt_reason = exec->reason();
  result.clique = std::move(best);
  return result;
}

}  // namespace mbc
