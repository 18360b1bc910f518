// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_baseline.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/timer.h"
#include "src/core/reductions.h"
#include "src/core/verify.h"

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
  Enumerator(const SignedGraph& graph, uint32_t tau, ExecutionContext* exec)
      : graph_(graph), tau_(tau), exec_(exec) {}

  // Runs the search; returns best clique as (left, right) vertex vectors.
  void Run(std::vector<VertexId>* best_left, std::vector<VertexId>* best_right,
           uint64_t* calls) {
    const VertexId n = graph_.NumVertices();
    arena_.BindNetwork(n);
    SearchArena::VectorFrame& root = arena_.VectorFrameAt(0);
    root.p_l.resize(n);
    root.p_r.resize(n);
    for (VertexId v = 0; v < n; ++v) root.p_l[v] = root.p_r[v] = v;
    Enum(0);
    *best_left = std::move(best_left_);
    *best_right = std::move(best_right_);
    *calls = calls_;
  }

 private:
  // Algorithm 1's Enum. Each call branches on every candidate of both
  // pools (a branch for "v joins C_L" for v ∈ P_L, and "v joins C_R" for
  // v ∈ P_R), removing the vertex from both pools afterwards so each
  // balanced clique is generated once (Bron-Kerbosch discipline; sides are
  // unordered, so dropping a root vertex from both pools after its branch
  // also collapses the mirror symmetry). The paper's Lines 11-12 "process
  // the two sides in alternating order" heuristic is realized by drawing
  // from the pool of the currently smaller side first.
  //
  // The node's pools live in arena frame `depth` (filled by the caller);
  // the grown clique is the shared c_l_ / c_r_ pair, pushed and popped
  // around each branch. Child pools are intersected directly into frame
  // `depth + 1`, so the whole search reuses one vector per (depth, set)
  // pair instead of constructing fresh vectors per node.
  void Enum(size_t depth) {
    ++calls_;
    if (exec_->Checkpoint()) stopped_ = true;
    if (stopped_) return;

    SearchArena::VectorFrame& frame = arena_.VectorFrameAt(depth);
    std::vector<VertexId>& p_l = frame.p_l;
    std::vector<VertexId>& p_r = frame.p_r;

    // Lines 5-6: record improvements.
    if (c_l_.size() >= tau_ && c_r_.size() >= tau_ &&
        c_l_.size() + c_r_.size() > best_left_.size() + best_right_.size()) {
      best_left_ = c_l_;
      best_right_ = c_r_;
    }

    // Line 10 bounds, applied at the node level.
    if (c_l_.size() + p_l.size() < tau_ || c_r_.size() + p_r.size() < tau_) {
      return;
    }
    if (c_l_.size() + p_l.size() + c_r_.size() + p_r.size() <=
        best_left_.size() + best_right_.size()) {
      return;
    }

    while ((!p_l.empty() || !p_r.empty()) && !stopped_) {
      // Alternation heuristic: grow the smaller side when possible.
      const bool from_left =
          !p_l.empty() && (p_r.empty() || c_l_.size() <= c_r_.size());
      std::vector<VertexId>& pool = from_left ? p_l : p_r;
      const VertexId v = pool.back();
      pool.pop_back();

      const auto pos = graph_.PositiveNeighbors(v);
      const auto neg = graph_.NegativeNeighbors(v);
      // Vertices joining C_L need positive edges to C_L and negative ones
      // to C_R; symmetrically for C_R.
      SearchArena::VectorFrame& child = arena_.VectorFrameAt(depth + 1);
      IntersectInto(from_left ? pos : neg, p_l, &child.p_l);
      IntersectInto(from_left ? neg : pos, p_r, &child.p_r);

      (from_left ? c_l_ : c_r_).push_back(v);
      Enum(depth + 1);
      (from_left ? c_l_ : c_r_).pop_back();

      // Remove v from the opposite pool too (only relevant at the root,
      // where both pools start as V; it suppresses mirrored duplicates).
      std::vector<VertexId>& other = from_left ? p_r : p_l;
      const auto it = std::lower_bound(other.begin(), other.end(), v);
      if (it != other.end() && *it == v) other.erase(it);
    }
  }

  const SignedGraph& graph_;
  const size_t tau_;
  ExecutionContext* const exec_;
  SearchArena arena_;
  bool stopped_ = false;
  uint64_t calls_ = 0;
  std::vector<VertexId> c_l_;
  std::vector<VertexId> c_r_;
  std::vector<VertexId> best_left_;
  std::vector<VertexId> best_right_;
};

}  // namespace

MbcBaselineResult MaxBalancedCliqueBaseline(const SignedGraph& graph,
                                            uint32_t tau,
                                            const MbcBaselineOptions& options) {
  MbcBaselineResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  Timer phase;
  // Line 1: VertexReduction and (optionally) EdgeReduction of [13]. The
  // governor's budget spans both the reduction and the search (the
  // deadline is absolute, so no per-phase budget split is needed).
  ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau);
  if (options.apply_edge_reduction) {
    reduced.graph = EdgeReduction(reduced.graph, tau, exec);
  }
  result.reduction_seconds = phase.ElapsedSeconds();

  phase.Restart();
  Enumerator enumerator(reduced.graph, tau, exec);
  std::vector<VertexId> left;
  std::vector<VertexId> right;
  enumerator.Run(&left, &right, &result.recursive_calls);
  result.search_seconds = phase.ElapsedSeconds();
  result.interrupt_reason = exec->reason();

  result.clique.left = std::move(left);
  result.clique.right = std::move(right);
  result.clique.MapToOriginal(reduced.to_original);
  result.clique.Canonicalize();
  return result;
}

}  // namespace mbc
