// Copyright 2026 The balanced-clique Authors.
//
// PF* (Algorithm 4): computes the polarization factor β(G) by transforming
// the problem into a series of dichromatic clique *checking* problems over
// the dichromatic networks, processed in reverse polarization order
// (Lemma 3 + Lemma 4).
#ifndef MBC_PF_PF_STAR_H_
#define MBC_PF_PF_STAR_H_

#include <cstdint>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

class DccSolver;

struct PfStarOptions {
  enum class Ordering {
    kPolarization,  // POrder from PDecompose (the paper's PF*)
    kDegeneracy,    // DOrder (the paper's PF*-DOrder variant)
  };
  Ordering ordering = Ordering::kPolarization;

  /// Seed τ* with MBC-Heu(G, 0) (Line 1). Disable only in tests.
  bool run_heuristic = true;

  /// A known valid balanced clique (original vertex ids) whose min side
  /// seeds τ* in addition to the built-in heuristic — the heuristic
  /// tier's warm start. A higher starting τ* means fewer DCC checks.
  /// Owned by the caller; may be null.
  const BalancedClique* initial_clique = nullptr;

  /// Shared execution governor. On an interrupt the current τ* is
  /// returned (a valid lower bound of β) with stats.interrupt_reason set.
  /// Owned by the caller; may be null (unlimited, the paper's setting).
  ExecutionContext* exec = nullptr;

  /// Caller-owned DCC solver to run the checks through instead of a
  /// run-local one (see MbcStarOptions::shared_solver). May be null.
  DccSolver* shared_solver = nullptr;
};

struct PfStarStats {
  /// Initial lower bound of β(G) from the heuristic.
  uint32_t heuristic_tau = 0;
  /// Number of top-level DCC invocations.
  uint64_t num_dcc_instances = 0;
  uint64_t num_networks_built = 0;
  uint64_t dcc_branches = 0;
  /// Average SR1 / SR2 over DCC instances (see MbcStarStats); -1 if none.
  double avg_sr1 = -1.0;
  double avg_sr2 = -1.0;
  /// Why the run stopped early (kNone = ran to completion, exact answer).
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

struct PfStarResult {
  /// β(G): the largest τ such that some balanced clique has both sides ≥ τ.
  uint32_t beta = 0;
  /// A balanced clique witnessing β (min side == beta); empty only when the
  /// graph is empty.
  BalancedClique witness;
  PfStarStats stats;
};

/// Computes the polarization factor of `graph`.
PfStarResult PolarizationFactorStar(const SignedGraph& graph,
                                    const PfStarOptions& options = {});

}  // namespace mbc

#endif  // MBC_PF_PF_STAR_H_
