// Copyright 2026 The balanced-clique Authors.
//
// Fault-injected graceful-degradation sweep: every solver is run many
// times with a deterministic injected fault armed on its governor. A run
// that gets interrupted must still return a *valid* (possibly suboptimal)
// result and report InterruptReason::kInjectedFault; a run that finishes
// before its fault fires must report kNone and the exact answer.
#include <gtest/gtest.h>

#include "src/common/execution.h"
#include "src/core/mbc_adv.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_enum.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/gmbc/gmbc.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_e.h"
#include "src/pf/pf_star.h"
#include "src/related/related_cliques.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

constexpr int kSeeds = 50;
// Per-probe trip probability. High enough that most of the 50 runs are
// interrupted somewhere inside the search, low enough that trip points
// vary across seeds (first probe, mid-reduction, mid-recursion, ...).
constexpr double kFaultProbability = 0.35;

SignedGraph TestGraph() {
  const SignedGraph base = RandomSignedGraph(300, 2500, 0.4, 77);
  return PlantBalancedCliques(base, {{4, 5}}, 3);
}

// The reported reason must be kInjectedFault exactly when the context was
// interrupted, and kNone otherwise.
void ExpectFaultVerdict(const ExecutionContext& exec, InterruptReason reason,
                        int seed) {
  EXPECT_EQ(reason, exec.Interrupted() ? InterruptReason::kInjectedFault
                                       : InterruptReason::kNone)
      << "seed=" << seed;
}

TEST(FaultInjectionTest, MbcStarAlwaysReturnsValidClique) {
  const SignedGraph graph = TestGraph();
  const size_t exact =
      MaxBalancedCliqueStar(graph, 2).clique.size();
  int interrupted = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    MbcStarOptions options;
    options.exec = &exec;
    const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
    EXPECT_TRUE(IsBalancedClique(graph, result.clique)) << "seed=" << seed;
    ExpectFaultVerdict(exec, result.stats.interrupt_reason, seed);
    if (result.stats.interrupt_reason != InterruptReason::kNone) {
      ++interrupted;
      EXPECT_LE(result.clique.size(), exact) << "seed=" << seed;
    } else {
      EXPECT_EQ(result.clique.size(), exact) << "seed=" << seed;
    }
  }
  EXPECT_GT(interrupted, 0) << "fault injection never fired";
}

TEST(FaultInjectionTest, MbcBaselineAlwaysReturnsValidClique) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    MbcBaselineOptions options;
    options.exec = &exec;
    const MbcBaselineResult result =
        MaxBalancedCliqueBaseline(graph, 2, options);
    EXPECT_TRUE(IsBalancedClique(graph, result.clique)) << "seed=" << seed;
    ExpectFaultVerdict(exec, result.interrupt_reason, seed);
  }
}

TEST(FaultInjectionTest, MbcAdvAlwaysReturnsValidClique) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    MbcAdvOptions options;
    options.exec = &exec;
    const MbcAdvResult result = MaxBalancedCliqueAdv(graph, 2, options);
    EXPECT_TRUE(IsBalancedClique(graph, result.clique)) << "seed=" << seed;
    ExpectFaultVerdict(exec, result.interrupt_reason, seed);
  }
}

TEST(FaultInjectionTest, MbcEnumReportsOnlyValidCliques) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    MbcEnumOptions options;
    options.exec = &exec;
    bool all_valid = true;
    const MbcEnumStats stats = EnumerateMaximalBalancedCliques(
        graph, 2,
        [&graph, &all_valid](const BalancedClique& clique) {
          all_valid &= IsBalancedClique(graph, clique);
        },
        options);
    EXPECT_TRUE(all_valid) << "seed=" << seed;
    if (exec.Interrupted()) {
      EXPECT_TRUE(stats.truncated) << "seed=" << seed;
      EXPECT_EQ(stats.interrupt_reason, InterruptReason::kInjectedFault)
          << "seed=" << seed;
    } else {
      EXPECT_EQ(stats.interrupt_reason, InterruptReason::kNone)
          << "seed=" << seed;
    }
  }
}

TEST(FaultInjectionTest, MbcParallelAlwaysReturnsValidClique) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    ParallelMbcOptions options;
    options.num_threads = 4;
    options.exec = &exec;
    const ParallelMbcResult result =
        ParallelMaxBalancedCliqueStar(graph, 2, options);
    EXPECT_TRUE(IsBalancedClique(graph, result.clique)) << "seed=" << seed;
    ExpectFaultVerdict(exec, result.interrupt_reason, seed);
  }
}

TEST(FaultInjectionTest, PfStarWitnessStaysValid) {
  const SignedGraph graph = TestGraph();
  const uint32_t exact = PolarizationFactorStar(graph).beta;
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    PfStarOptions options;
    options.exec = &exec;
    const PfStarResult result = PolarizationFactorStar(graph, options);
    EXPECT_TRUE(IsBalancedClique(graph, result.witness)) << "seed=" << seed;
    EXPECT_EQ(result.witness.MinSide(), result.beta) << "seed=" << seed;
    EXPECT_LE(result.beta, exact) << "seed=" << seed;
    ExpectFaultVerdict(exec, result.stats.interrupt_reason, seed);
  }
}

TEST(FaultInjectionTest, PfBsBetaStaysSoundLowerBound) {
  const SignedGraph graph = TestGraph();
  const uint32_t exact = PolarizationFactorStar(graph).beta;
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    PfBsOptions options;
    options.exec = &exec;
    const PfBsResult result =
        PolarizationFactorBinarySearch(graph, options);
    // Interrupted probes must never push the reported beta above truth.
    EXPECT_LE(result.beta, exact) << "seed=" << seed;
    ExpectFaultVerdict(exec, result.interrupt_reason, seed);
    if (result.interrupt_reason == InterruptReason::kNone) {
      EXPECT_EQ(result.beta, exact) << "seed=" << seed;
    }
  }
}

TEST(FaultInjectionTest, PfEnumBetaStaysSoundLowerBound) {
  const SignedGraph graph = RandomSignedGraph(60, 350, 0.45, 21);
  const uint32_t exact = PolarizationFactorStar(graph).beta;
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    PfEOptions options;
    options.exec = &exec;
    const PfEResult result = PolarizationFactorEnum(graph, options);
    EXPECT_LE(result.beta, exact) << "seed=" << seed;
    if (result.interrupt_reason == InterruptReason::kNone) {
      EXPECT_EQ(result.beta, exact) << "seed=" << seed;
    }
  }
}

TEST(FaultInjectionTest, GmbcStarKeepsPerTauInvariants) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    GeneralizedMbcOptions options;
    options.exec = &exec;
    const GeneralizedMbcResult result = GeneralizedMbcStar(graph, options);
    ASSERT_EQ(result.cliques.size(), static_cast<size_t>(result.beta) + 1)
        << "seed=" << seed;
    for (uint32_t tau = 0; tau <= result.beta; ++tau) {
      EXPECT_TRUE(IsBalancedClique(graph, result.cliques[tau]))
          << "seed=" << seed << " tau=" << tau;
      EXPECT_TRUE(result.cliques[tau].SatisfiesThreshold(tau))
          << "seed=" << seed << " tau=" << tau;
    }
    ExpectFaultVerdict(exec, result.interrupt_reason, seed);
  }
}

TEST(FaultInjectionTest, GmbcUpwardSweepKeepsInvariants) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    GeneralizedMbcOptions options;
    options.exec = &exec;
    const GeneralizedMbcResult result = GeneralizedMbc(graph, options);
    for (size_t tau = 0; tau < result.cliques.size(); ++tau) {
      EXPECT_TRUE(IsBalancedClique(graph, result.cliques[tau]))
          << "seed=" << seed << " tau=" << tau;
    }
    ExpectFaultVerdict(exec, result.interrupt_reason, seed);
  }
}

TEST(FaultInjectionTest, RelatedCliquesStayValid) {
  const SignedGraph graph = TestGraph();
  for (int seed = 0; seed < kSeeds; ++seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(kFaultProbability, static_cast<uint64_t>(seed));
    const std::vector<VertexId> trusted = MaxTrustedClique(graph, &exec);
    // A trusted clique is an all-positive clique: verify pairwise.
    for (size_t i = 0; i < trusted.size(); ++i) {
      for (size_t j = i + 1; j < trusted.size(); ++j) {
        EXPECT_EQ(graph.EdgeSign(trusted[i], trusted[j]), Sign::kPositive)
            << "seed=" << seed;
      }
    }

    ExecutionContext ak_exec;
    ak_exec.ArmFaultInjection(kFaultProbability,
                              static_cast<uint64_t>(seed) + 1000);
    AlphaKCliqueOptions options;
    options.alpha = 1.0;
    options.k = 2;
    options.exec = &ak_exec;
    const AlphaKCliqueResult ak = MaxAlphaKClique(graph, options);
    if (!ak.clique.empty()) {
      EXPECT_TRUE(IsAlphaKClique(graph, ak.clique, options.alpha, options.k))
          << "seed=" << seed;
    }
    ExpectFaultVerdict(ak_exec, ak.interrupt_reason, seed);
  }
}

// MBC_FAULT_INJECT arms every context created in the process; malformed
// values are ignored. Exercised via the programmatic API elsewhere; here
// only the env parsing contract is pinned down for a fresh process-wide
// spec (the env var is parsed once, so this test only checks the default).
TEST(FaultInjectionTest, UnsetEnvLeavesContextsDisarmed) {
  ExecutionContext exec;
  EXPECT_FALSE(exec.fault_injection_armed());
}

}  // namespace
}  // namespace mbc
