// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_enum.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/core/reductions.h"

namespace mbc {
namespace {

// Intersection of two sorted vertex sequences into reused storage.
void IntersectInto(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>* out) {
  out->clear();
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(*out));
}

class Enumerator {
 public:
  Enumerator(const SignedGraph& graph, uint32_t tau,
             const std::vector<VertexId>& to_original,
             const std::function<void(const BalancedClique&)>& callback,
             const MbcEnumOptions& options, ExecutionContext* exec,
             MbcEnumStats* stats)
      : graph_(graph),
        tau_(tau),
        to_original_(to_original),
        callback_(callback),
        options_(options),
        exec_(exec),
        stats_(stats) {}

  void Run() {
    // Top level: anchor each vertex v as the lowest-ordered clique member,
    // placed (WLOG) on the left side. Vertices processed earlier join the
    // exclusion sets, guaranteeing each maximal clique is found once.
    const VertexId n = graph_.NumVertices();
    arena_.BindNetwork(n);
    std::vector<uint8_t> processed(n, 0);
    for (VertexId v = 0; v < n && !stopped_; ++v) {
      SearchArena::VectorFrame& root = arena_.VectorFrameAt(0);
      root.p_l.clear();
      root.p_r.clear();
      root.x_l.clear();
      root.x_r.clear();
      for (VertexId w : graph_.PositiveNeighbors(v)) {
        (processed[w] ? root.x_l : root.p_l).push_back(w);
      }
      for (VertexId w : graph_.NegativeNeighbors(v)) {
        (processed[w] ? root.x_r : root.p_r).push_back(w);
      }
      c_l_.assign(1, v);
      c_r_.clear();
      Recurse(0);
      processed[v] = 1;
    }
  }

 private:

  void Report() {
    BalancedClique clique;
    clique.left = c_l_;
    clique.right = c_r_;
    clique.MapToOriginal(to_original_);
    clique.Canonicalize();
    callback_(clique);
    ++stats_->num_reported;
    if (options_.max_cliques != 0 &&
        stats_->num_reported >= options_.max_cliques) {
      stopped_ = true;
      stats_->truncated = true;
    }
  }

  // The node's four sets live in arena frame `depth` (filled by the
  // caller); child sets are intersected directly into frame `depth + 1`,
  // so every recursion node reuses the capacity of its depth's vectors
  // instead of constructing four fresh ones.
  void Recurse(size_t depth) {
    ++stats_->recursive_calls;
    if (exec_->Checkpoint()) {
      stopped_ = true;
      stats_->truncated = true;
    }
    if (stopped_) return;

    SearchArena::VectorFrame& sets = arena_.VectorFrameAt(depth);

    // Feasibility pruning: a reported clique needs ≥ τ on each side.
    if (c_l_.size() + sets.p_l.size() < tau_ ||
        c_r_.size() + sets.p_r.size() < tau_) {
      return;
    }

    if (sets.p_l.empty() && sets.p_r.empty()) {
      // Maximal iff nothing in the exclusion sets can extend either side.
      if (sets.x_l.empty() && sets.x_r.empty() && c_l_.size() >= tau_ &&
          c_r_.size() >= tau_) {
        Report();
      }
      return;
    }

    // Branch on every candidate, moving it to the exclusion set afterwards.
    // Left candidates first, then right; the live candidate set during the
    // loop is the unprocessed suffix plus the untouched other side.
    while ((!sets.p_l.empty() || !sets.p_r.empty()) && !stopped_) {
      const bool from_left = !sets.p_l.empty();
      std::vector<VertexId>& pool = from_left ? sets.p_l : sets.p_r;
      const VertexId v = pool.back();
      pool.pop_back();

      // v joins side C_L if taken from P_L (positive edges to C_L, negative
      // to C_R) and C_R otherwise.
      const auto pos = graph_.PositiveNeighbors(v);
      const auto neg = graph_.NegativeNeighbors(v);
      SearchArena::VectorFrame& child = arena_.VectorFrameAt(depth + 1);
      if (from_left) {
        IntersectInto(pos, sets.p_l, &child.p_l);
        IntersectInto(neg, sets.p_r, &child.p_r);
        IntersectInto(pos, sets.x_l, &child.x_l);
        IntersectInto(neg, sets.x_r, &child.x_r);
        c_l_.push_back(v);
        Recurse(depth + 1);
        c_l_.pop_back();
        InsertSorted(&sets.x_l, v);
      } else {
        IntersectInto(neg, sets.p_l, &child.p_l);
        IntersectInto(pos, sets.p_r, &child.p_r);
        IntersectInto(neg, sets.x_l, &child.x_l);
        IntersectInto(pos, sets.x_r, &child.x_r);
        c_r_.push_back(v);
        Recurse(depth + 1);
        c_r_.pop_back();
        InsertSorted(&sets.x_r, v);
      }
    }
  }

  static void InsertSorted(std::vector<VertexId>* vec, VertexId v) {
    vec->insert(std::upper_bound(vec->begin(), vec->end(), v), v);
  }

  const SignedGraph& graph_;
  const size_t tau_;
  const std::vector<VertexId>& to_original_;
  const std::function<void(const BalancedClique&)>& callback_;
  const MbcEnumOptions& options_;
  ExecutionContext* const exec_;
  MbcEnumStats* stats_;
  SearchArena arena_;
  bool stopped_ = false;
  std::vector<VertexId> c_l_;
  std::vector<VertexId> c_r_;
};

}  // namespace

MbcEnumStats EnumerateMaximalBalancedCliques(
    const SignedGraph& graph, uint32_t tau,
    const std::function<void(const BalancedClique&)>& callback,
    const MbcEnumOptions& options) {
  MbcEnumStats stats;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  SignedGraph reduced_storage;
  std::vector<VertexId> to_original;
  const SignedGraph* working = &graph;
  if (options.apply_reductions) {
    ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau);
    reduced_storage = EdgeReduction(reduced.graph, tau, exec);
    to_original = std::move(reduced.to_original);
    working = &reduced_storage;
  } else {
    to_original.resize(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) to_original[v] = v;
  }

  Enumerator enumerator(*working, tau, to_original, callback, options, exec,
                        &stats);
  enumerator.Run();
  stats.interrupt_reason = exec->reason();
  if (exec->Interrupted()) stats.truncated = true;
  return stats;
}

}  // namespace mbc
