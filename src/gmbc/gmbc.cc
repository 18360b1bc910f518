// Copyright 2026 The balanced-clique Authors.
#include "src/gmbc/gmbc.h"

#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/core/mbc_star.h"
#include "src/pf/pf_star.h"

namespace mbc {

size_t GeneralizedMbcResult::NumDistinctCliques() const {
  std::set<std::vector<VertexId>> distinct;
  for (const BalancedClique& clique : cliques) {
    distinct.insert(clique.AllVertices());
  }
  return distinct.size();
}

GeneralizedMbcResult GeneralizedMbc(const SignedGraph& graph,
                                    const GeneralizedMbcOptions& options) {
  GeneralizedMbcResult result;
  // One governor spans the whole sweep: the deadline is absolute, so the
  // per-τ runs share the budget without any remaining-time bookkeeping.
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  for (uint32_t tau = 0;; ++tau) {
    ++result.num_mbc_calls;
    MbcStarOptions star_options;
    star_options.exec = exec;
    MbcStarResult mbc = MaxBalancedCliqueStar(graph, tau, star_options);
    if (mbc.clique.empty()) break;  // τ > β(G); the probe at β+1 is free.
    result.cliques.push_back(std::move(mbc.clique));
    if (exec->Interrupted()) break;
  }
  result.interrupt_reason = exec->reason();
  result.beta = result.cliques.empty()
                    ? 0
                    : static_cast<uint32_t>(result.cliques.size() - 1);
  return result;
}

GeneralizedMbcResult GeneralizedMbcStar(const SignedGraph& graph,
                                        const GeneralizedMbcOptions& options) {
  GeneralizedMbcResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  if (graph.NumVertices() == 0) {
    result.interrupt_reason = exec->reason();
    return result;
  }

  // Line 1: β(G) via PF*.
  PfStarOptions pf_options;
  pf_options.exec = exec;
  const PfStarResult pf = PolarizationFactorStar(graph, pf_options);
  result.beta = pf.beta;
  result.cliques.resize(pf.beta + 1);

  // Lines 2-7: decreasing τ, seeding each run with the previous solution.
  // On an interrupt, the incumbent (feasible by Lemma 6) is propagated to
  // the remaining thresholds.
  BalancedClique incumbent = pf.witness;  // feasible for τ = β(G)
  for (int64_t tau = pf.beta; tau >= 0; --tau) {
    if (exec->Probe() && !incumbent.empty()) {
      // Interrupted: propagate the incumbent (feasible for every smaller
      // τ by Lemma 6) without paying for further MBC* preambles.
      result.cliques[static_cast<size_t>(tau)] = incumbent;
      continue;
    }
    MbcStarOptions star_options;
    if (!incumbent.empty()) star_options.initial_clique = &incumbent;
    star_options.exec = exec;
    ++result.num_mbc_calls;
    MbcStarResult mbc =
        MaxBalancedCliqueStar(graph, static_cast<uint32_t>(tau),
                              star_options);
    // MBC* returns at least the incumbent; for τ = β(G) feasibility is
    // guaranteed by PF*'s witness.
    MBC_CHECK(!mbc.clique.empty());
    result.cliques[static_cast<size_t>(tau)] = mbc.clique;
    incumbent = std::move(mbc.clique);
  }
  result.interrupt_reason = exec->reason();
  return result;
}

}  // namespace mbc
