// Copyright 2026 The balanced-clique Authors.
#include "src/related/related_cliques.h"

#include <algorithm>
#include <cmath>

#include "src/common/bitset.h"
#include "src/common/execution.h"
#include "src/core/mdc_solver.h"
#include "src/dichromatic/reductions.h"
#include "src/dichromatic/signed_ego.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

// Dense positive-only neighborhood of u over its higher-ranked positive
// neighbors; local 0 = u. Packed as a DichromaticGraph (all L) so the
// MDC machinery solves plain maximum clique with thresholds (0, 0).
DichromaticGraph BuildPositiveEgo(const SignedGraph& graph, VertexId u,
                                  const std::vector<uint32_t>& rank,
                                  std::vector<VertexId>* to_original) {
  to_original->clear();
  to_original->push_back(u);
  for (VertexId v : graph.PositiveNeighbors(u)) {
    if (rank[v] > rank[u]) to_original->push_back(v);
  }
  const uint32_t k = static_cast<uint32_t>(to_original->size());
  DichromaticGraph ego(k);
  for (uint32_t i = 0; i < k; ++i) ego.SetSide(i, Side::kLeft);
  // Membership lookup via sorted (id -> local) pairs.
  std::vector<std::pair<VertexId, uint32_t>> members(k);
  for (uint32_t i = 0; i < k; ++i) members[i] = {(*to_original)[i], i};
  std::sort(members.begin(), members.end());
  auto local_of = [&members](VertexId v) -> uint32_t {
    const auto it = std::lower_bound(
        members.begin(), members.end(), std::make_pair(v, 0u),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == members.end() || it->first != v) return UINT32_MAX;
    return it->second;
  };
  for (uint32_t i = 0; i < k; ++i) {
    const VertexId x = (*to_original)[i];
    for (VertexId y : graph.PositiveNeighbors(x)) {
      const uint32_t j = local_of(y);
      if (j != UINT32_MAX && j > i) ego.AddEdge(i, j);
    }
  }
  return ego;
}

}  // namespace

std::vector<VertexId> MaxTrustedClique(const SignedGraph& graph,
                                       ExecutionContext* exec) {
  const VertexId n = graph.NumVertices();
  if (n == 0) return {};
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);

  std::vector<VertexId> best;
  for (auto it = degeneracy.order.rbegin(); it != degeneracy.order.rend();
       ++it) {
    if (exec != nullptr && exec->Probe()) break;
    const VertexId u = *it;
    // Size pre-check against the incumbent.
    uint32_t higher = 0;
    for (VertexId v : graph.PositiveNeighbors(u)) {
      higher += degeneracy.rank[v] > degeneracy.rank[u];
    }
    if (static_cast<size_t>(higher) + 1 <= std::max<size_t>(best.size(), 1)) {
      continue;
    }
    std::vector<VertexId> to_original;
    const DichromaticGraph ego =
        BuildPositiveEgo(graph, u, degeneracy.rank, &to_original);
    Bitset alive = ego.AllVertices();
    alive = KCoreWithin(ego, alive, static_cast<uint32_t>(best.size()));
    if (!alive.Test(0) || alive.Count() <= best.size()) continue;
    if (ColoringBoundWithin(ego, alive,
                            static_cast<uint32_t>(best.size())) <=
        best.size()) {
      continue;
    }
    Bitset candidates = alive;
    candidates.Reset(0);
    MdcSolver solver(ego);
    solver.SetExecution(exec);
    std::vector<uint32_t> solution;
    if (solver.Solve({0}, candidates, 0, 0, best.size(), &solution)) {
      best.clear();
      for (uint32_t local : solution) best.push_back(to_original[local]);
      std::sort(best.begin(), best.end());
    }
  }
  if (best.empty() && n > 0) best.push_back(0);  // a vertex is a 1-clique
  return best;
}

bool IsAlphaKClique(const SignedGraph& graph,
                    const std::vector<VertexId>& clique, double alpha,
                    uint32_t k) {
  const double min_pos = alpha * static_cast<double>(k);
  for (size_t i = 0; i < clique.size(); ++i) {
    uint32_t pos = 0;
    uint32_t neg = 0;
    for (size_t j = 0; j < clique.size(); ++j) {
      if (i == j) continue;
      const std::optional<Sign> sign =
          graph.EdgeSign(clique[i], clique[j]);
      if (!sign.has_value()) return false;  // not a clique
      (*sign == Sign::kPositive ? pos : neg) += 1;
    }
    if (neg > k) return false;
    if (static_cast<double>(pos) < min_pos) return false;
  }
  return true;
}

namespace {

// Branch-and-bound for the maximum (α, k)-clique inside one signed ego
// network. The ≤ k negative-neighbors constraint is monotone (pruned
// during growth); the ≥ α·k positive-neighbors constraint is checked at
// record time and bounded via |C| + |P|.
class AlphaKSearcher {
 public:
  AlphaKSearcher(const SignedEgoNetwork& net, double alpha, uint32_t k,
                 ExecutionContext* exec)
      : net_(net),
        min_pos_(alpha * static_cast<double>(k)),
        k_(k),
        exec_(exec) {}

  // Returns true if a clique larger than lower_bound was found.
  bool Solve(size_t lower_bound, std::vector<uint32_t>* best) {
    best_size_ = lower_bound;
    found_ = false;
    current_.clear();
    neg_within_.assign(net_.skeleton.NumVertices(), 0);
    current_.push_back(0);
    Bitset candidates = net_.skeleton.AdjacencyOf(0);
    Recurse(candidates);
    if (found_) *best = best_;
    return found_;
  }

  bool interrupted() const { return interrupted_; }

 private:
  void Recurse(const Bitset& candidates) {
    if (interrupted_) return;
    if (exec_->Checkpoint()) {
      interrupted_ = true;
      return;
    }

    // Record: all members need ≥ α·k positive and ≤ k negative neighbors
    // inside C (negative already enforced during growth).
    if (current_.size() > best_size_) {
      bool feasible = true;
      for (uint32_t member : current_) {
        const double pos = static_cast<double>(current_.size()) - 1.0 -
                           static_cast<double>(neg_within_[member]);
        if (pos < min_pos_) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        best_ = current_;
        best_size_ = current_.size();
        found_ = true;
      }
    }

    Bitset cand = candidates;
    // Size + positive-requirement bound: even taking every candidate,
    // each member's positive count is at most |C| + |P| - 1 - neg.
    const size_t reach = current_.size() + cand.Count();
    if (reach <= best_size_) return;
    for (uint32_t member : current_) {
      if (static_cast<double>(reach) - 1.0 -
              static_cast<double>(neg_within_[member]) <
          min_pos_) {
        return;
      }
    }
    if (cand.None()) return;
    const uint32_t needed =
        best_size_ > current_.size()
            ? static_cast<uint32_t>(best_size_ - current_.size())
            : 0;
    if (current_.size() +
            ColoringBoundWithin(net_.skeleton, cand, needed) <=
        best_size_) {
      return;
    }

    Bitset remaining = cand;
    while (remaining.Any() && !interrupted_) {
      if (current_.size() + remaining.Count() <= best_size_) return;
      const auto v = static_cast<uint32_t>(remaining.FindFirst());
      remaining.Reset(v);

      // Adding v: check the monotone negative bounds.
      const Bitset& v_neg = net_.neg[v];
      const auto v_neg_in_c = static_cast<uint32_t>([&] {
        uint32_t count = 0;
        for (uint32_t member : current_) count += v_neg.Test(member);
        return count;
      }());
      if (v_neg_in_c > k_) continue;
      bool ok = true;
      for (uint32_t member : current_) {
        if (v_neg.Test(member) && neg_within_[member] + 1 > k_) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      for (uint32_t member : current_) {
        neg_within_[member] += v_neg.Test(member);
      }
      neg_within_[v] = v_neg_in_c;
      current_.push_back(v);
      Recurse(net_.skeleton.AdjacencyOf(v) & remaining);
      current_.pop_back();
      for (uint32_t member : current_) {
        neg_within_[member] -= v_neg.Test(member);
      }
    }
  }

  const SignedEgoNetwork& net_;
  const double min_pos_;
  const uint32_t k_;
  ExecutionContext* const exec_;
  std::vector<uint32_t> current_;
  std::vector<uint32_t> best_;
  std::vector<uint32_t> neg_within_;
  size_t best_size_ = 0;
  bool found_ = false;
  bool interrupted_ = false;
};

}  // namespace

AlphaKCliqueResult MaxAlphaKClique(const SignedGraph& graph,
                                   const AlphaKCliqueOptions& options) {
  AlphaKCliqueResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  const VertexId n = graph.NumVertices();
  if (n == 0) {
    result.interrupt_reason = exec->reason();
    return result;
  }

  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  SignedEgoNetworkBuilder builder(graph);
  std::vector<VertexId> best;
  for (auto it = degeneracy.order.rbegin(); it != degeneracy.order.rend();
       ++it) {
    if (exec->Probe()) break;
    const VertexId u = *it;
    uint32_t higher = 0;
    for (VertexId v : graph.PositiveNeighbors(u)) {
      higher += degeneracy.rank[v] > degeneracy.rank[u];
    }
    for (VertexId v : graph.NegativeNeighbors(u)) {
      higher += degeneracy.rank[v] > degeneracy.rank[u];
    }
    if (static_cast<size_t>(higher) + 1 <= best.size()) continue;

    const SignedEgoNetwork net = builder.Build(u, degeneracy.rank.data());
    AlphaKSearcher searcher(net, options.alpha, options.k, exec);
    std::vector<uint32_t> solution;
    if (searcher.Solve(best.size(), &solution)) {
      best.clear();
      for (uint32_t local : solution) {
        best.push_back(net.to_original[local]);
      }
      std::sort(best.begin(), best.end());
    }
  }

  // Single vertices satisfy the constraints vacuously only when α·k == 0.
  if (best.empty() && options.alpha * options.k <= 0.0) best.push_back(0);
  result.clique = std::move(best);
  result.interrupt_reason = exec->reason();
  return result;
}

}  // namespace mbc
