// Copyright 2026 The balanced-clique Authors.
#include "src/pf/pf_star.h"

#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/core/mbc_heu.h"
#include "src/core/reductions.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"
#include "src/pf/dcc_solver.h"
#include "src/pf/pdecompose.h"

namespace mbc {

PfStarResult PolarizationFactorStar(const SignedGraph& graph,
                                    const PfStarOptions& options) {
  PfStarResult result;
  PfStarStats& stats = result.stats;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  // Line 1: heuristic lower bound τ* = min side of MBC-Heu(G, 0).
  uint32_t tau = 0;
  if (options.run_heuristic && graph.NumVertices() > 0) {
    BalancedClique heu = MbcHeuristic(graph, /*tau=*/0, exec);
    tau = static_cast<uint32_t>(heu.MinSide());
    stats.heuristic_tau = tau;
    result.witness = std::move(heu);
  }
  if (options.initial_clique != nullptr &&
      options.initial_clique->MinSide() > tau) {
    // Warm start: a caller-supplied clique with a wider min side raises
    // the starting lower bound (and becomes the witness to beat).
    tau = static_cast<uint32_t>(options.initial_clique->MinSide());
    result.witness = *options.initial_clique;
    result.witness.Canonicalize();
  }

  // Line 2: VertexReduction for threshold τ* + 1 — we are only searching
  // for cliques that push β beyond the current lower bound.
  ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau + 1);
  const SignedGraph& work = reduced.graph;
  if (work.NumVertices() == 0) {
    stats.interrupt_reason = exec->reason();
    result.beta = tau;
    return result;
  }

  // Line 3: processing order.
  std::vector<VertexId> order;
  std::vector<uint32_t> rank;
  std::vector<uint32_t> polar_core_number;  // empty under DOrder
  if (options.ordering == PfStarOptions::Ordering::kPolarization) {
    PolarDecomposition polar = PDecompose(work);
    order = std::move(polar.order);
    rank = std::move(polar.rank);
    polar_core_number = std::move(polar.polar_core_number);
  } else {
    DegeneracyResult degeneracy = DegeneracyDecompose(work);
    order = std::move(degeneracy.order);
    rank = std::move(degeneracy.rank);
  }

  DichromaticNetworkBuilder builder(work);
  double sr1_sum = 0.0;
  double sr2_sum = 0.0;
  uint64_t sr_count = 0;

  // Reusable per-search state hoisted out of the vertex loop (see
  // docs/perf.md): one network, one DCC solver (arena-backed), and the
  // two-sided-core scratch, all grown to a high-water size once.
  DichromaticNetwork net;
  DccSolver local_solver;
  DccSolver& solver = options.shared_solver != nullptr
                          ? *options.shared_solver
                          : local_solver;
  solver.SetExecution(exec);
  SearchArena prune_arena;
  Bitset core;
  Bitset core_sans_u;
  Bitset candidates;
  std::vector<uint32_t> witness_locals;

  // Lines 4-8: process vertices in reverse order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (exec->Probe()) break;
    const VertexId u = *it;
    // Lemma 5: γ(g_u) ≤ pn(u). Under the polarization order, pn is
    // non-increasing along the (reversed) processing order, so the first
    // vertex whose polar-core number cannot beat τ* ends the whole scan —
    // the pruning that makes POrder the superior ordering.
    if (!polar_core_number.empty() && polar_core_number[u] <= tau) break;
    // Cheap pre-check: g_u needs at least τ*+... vertices on each side
    // through u, so u itself needs enough higher-ranked positive and
    // negative neighbors.
    uint32_t higher_pos = 0;
    for (VertexId v : work.PositiveNeighbors(u)) {
      higher_pos += rank[v] > rank[u];
    }
    uint32_t higher_neg = 0;
    for (VertexId v : work.NegativeNeighbors(u)) {
      higher_neg += rank[v] > rank[u];
    }
    if (higher_pos < tau || higher_neg < tau + 1) continue;
    builder.BuildInto(u, rank.data(), nullptr, &net);
    ++stats.num_networks_built;
    const uint32_t k = net.graph.NumVertices();
    prune_arena.BindNetwork(k);

    // Line 6: reduce g_u to its (τ*+1, τ*+1)-core. Repeat whenever a DCC
    // success raises τ*: Lemma 4 only bounds γ(g_u) relative to the best γ
    // over *later* vertices, so a single network may push τ* up by more
    // than one step when the heuristic seed was loose.
    while (true) {
      core.ReshapeUninit(k);
      core.SetAll();
      size_t core_count = k;
      TwoSidedCoreWithinInPlace(net.graph, &core,
                                static_cast<int32_t>(tau) + 1,
                                static_cast<int32_t>(tau) + 1,
                                &prune_arena.pending(), &core_count);
      // Line 7: u itself must survive (u ∈ V_L(g)); otherwise no
      // dichromatic clique through u reaches τ*+1.
      if (!core.Test(0)) break;

      // Line 8: check for a dichromatic clique with τ*+1 per side. u is
      // greedily committed (it is an L-vertex adjacent to all members).
      ++stats.num_dcc_instances;
      if (net.ego_edges > 0) {
        core_sans_u.CopyFrom(core);
        core_sans_u.Reset(0);
        const uint64_t core_edges = net.graph.EdgesWithin(core_sans_u);
        sr1_sum += 1.0 - static_cast<double>(net.dichromatic_edges) /
                             static_cast<double>(net.ego_edges);
        sr2_sum += 1.0 - static_cast<double>(core_edges) /
                             static_cast<double>(net.ego_edges);
        ++sr_count;
      }

      candidates.CopyFrom(core);
      candidates.Reset(0);
      solver.Rebind(net.graph);
      witness_locals.clear();
      const bool found =
          solver.Check(candidates, static_cast<int32_t>(tau),
                       static_cast<int32_t>(tau) + 1, &witness_locals);
      stats.dcc_branches += solver.branches();
      if (!found) break;

      ++tau;
      BalancedClique witness;
      witness.left.push_back(reduced.to_original[net.to_original[0]]);
      for (uint32_t local : witness_locals) {
        auto& side = net.graph.IsLeft(local) ? witness.left : witness.right;
        side.push_back(reduced.to_original[net.to_original[local]]);
      }
      witness.Canonicalize();
      result.witness = std::move(witness);
    }
  }

  if (sr_count > 0) {
    stats.avg_sr1 = sr1_sum / static_cast<double>(sr_count);
    stats.avg_sr2 = sr2_sum / static_cast<double>(sr_count);
  }
  stats.interrupt_reason = exec->reason();
  result.beta = tau;
  return result;
}

}  // namespace mbc
