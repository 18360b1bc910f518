// Copyright 2026 The balanced-clique Authors.
//
// Failure-injection tests for the execution governor's wall-clock path:
// expired budgets must degrade gracefully (valid partial results labelled
// kDeadline), never crash or return invalid cliques. All interrupt trips here
// are deterministic: ExecutionContext::Checkpoint() probes on its very
// first call, so a zero deadline fires before any search work happens.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "src/common/execution.h"
#include "src/core/mbc_adv.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_enum.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/mbc_tolerant.h"
#include "src/core/reductions.h"
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

TEST(TimeLimitTest, MbcStarZeroBudgetStillReturnsValidClique) {
  const SignedGraph base = RandomSignedGraph(800, 6000, 0.4, 3);
  const SignedGraph graph = PlantBalancedCliques(base, {{5, 6}}, 1);
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  // The heuristic runs before the budget check, so a clique is returned.
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, MbcStarZeroBudgetKeepsFirstAnchorGreedy) {
  // The heuristic's first anchor completes under an expired budget, so
  // the deadline answer is the greedy clique, not an empty one.
  const SignedGraph graph = testing_util::Figure2Graph();
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  EXPECT_FALSE(result.clique.empty());
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
  EXPECT_TRUE(result.clique.SatisfiesThreshold(2));
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, MbcStarGenerousBudgetIsExact) {
  const SignedGraph graph = testing_util::Figure2Graph();
  ExecutionContext exec(Deadline::After(1e6));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kNone);
  EXPECT_EQ(result.clique.size(), 6u);
}

TEST(TimeLimitTest, EdgeReductionZeroBudgetReturnsInput) {
  const SignedGraph graph = RandomSignedGraph(2000, 30000, 0.45, 5);
  ExecutionContext exec(Deadline::After(0.0));
  const SignedGraph reduced = EdgeReduction(graph, 3, &exec);
  // The pre-loop probe trips, and a partial round is discarded wholesale.
  EXPECT_EQ(reduced.NumEdges(), graph.NumEdges());
  EXPECT_TRUE(exec.Interrupted());
}

TEST(TimeLimitTest, EdgeReductionPartialIsSupersetOfFull) {
  const SignedGraph graph = RandomSignedGraph(120, 900, 0.45, 9);
  const SignedGraph full = EdgeReduction(graph, 3);
  ExecutionContext exec(Deadline::After(0.0));
  const SignedGraph partial = EdgeReduction(graph, 3, &exec);
  // Every edge surviving the full reduction also survives the partial one
  // (partial = a prefix of the removal rounds).
  full.ForEachEdge([&partial](VertexId u, VertexId v, Sign sign) {
    EXPECT_EQ(partial.EdgeSign(u, v), sign);
  });
  EXPECT_GE(partial.NumEdges(), full.NumEdges());
}

TEST(TimeLimitTest, PfStarZeroBudgetReturnsHeuristicLowerBound) {
  const SignedGraph base = RandomSignedGraph(600, 4000, 0.4, 7);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 4}}, 2);
  ExecutionContext exec(Deadline::After(0.0));
  PfStarOptions options;
  options.exec = &exec;
  const PfStarResult result = PolarizationFactorStar(graph, options);
  // The result is a valid lower bound with a valid witness.
  EXPECT_TRUE(IsBalancedClique(graph, result.witness));
  EXPECT_EQ(result.witness.MinSide(), result.beta);
  EXPECT_GT(result.beta, 0u);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
  const PfStarResult exact = PolarizationFactorStar(graph);
  EXPECT_LE(result.beta, exact.beta);
}

TEST(TimeLimitTest, GmbcStarZeroBudgetKeepsInvariants) {
  const SignedGraph base = RandomSignedGraph(500, 3500, 0.4, 11);
  const SignedGraph graph = PlantBalancedCliques(base, {{3, 4}}, 5);
  ExecutionContext exec(Deadline::After(0.0));
  GeneralizedMbcOptions options;
  options.exec = &exec;
  const GeneralizedMbcResult result = GeneralizedMbcStar(graph, options);
  ASSERT_EQ(result.cliques.size(), static_cast<size_t>(result.beta) + 1);
  for (uint32_t tau = 0; tau <= result.beta; ++tau) {
    EXPECT_TRUE(IsBalancedClique(graph, result.cliques[tau]));
    EXPECT_TRUE(result.cliques[tau].SatisfiesThreshold(tau));
  }
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, ExpiredBudgetSetsFlagOnHardInstance) {
  const SignedGraph graph = RandomSignedGraph(3000, 60000, 0.45, 13);
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  options.run_heuristic = false;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 1, options);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, SharedContextDeadlineIsObservedBySolver) {
  // A caller-owned context with an already-expired deadline stops the
  // solver, which reports the context's reason back.
  const SignedGraph graph = RandomSignedGraph(400, 3000, 0.4, 17);
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 1, options);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
  EXPECT_EQ(exec.reason(), InterruptReason::kDeadline);
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

TEST(TimeLimitTest, EmptyGraphStillReportsExpiredDeadline) {
  // The two entry points that short-cut an empty graph still report the
  // context's reason, like every other entry point.
  const SignedGraph empty;
  ExecutionContext exec(Deadline::After(0.0));
  GeneralizedMbcOptions gmbc_options;
  gmbc_options.exec = &exec;
  EXPECT_EQ(GeneralizedMbcStar(empty, gmbc_options).interrupt_reason,
            InterruptReason::kDeadline);
  AlphaKCliqueOptions ak_options;
  ak_options.exec = &exec;
  EXPECT_EQ(MaxAlphaKClique(empty, ak_options).interrupt_reason,
            InterruptReason::kDeadline);
}

// One row per solver entry point. `run` calls the entry point under
// `exec`, checks that the answer it returns is valid (a clique meeting τ,
// or a β that is a lower bound), and returns the reported interrupt
// reason.
struct EntryPoint {
  const char* name;
  std::function<InterruptReason(ExecutionContext*)> run;
};

TEST(TimeLimitTest, EveryEntryPointReportsExpiredDeadline) {
  const SignedGraph base = RandomSignedGraph(300, 2000, 0.4, 19);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 4}}, 3);
  constexpr uint32_t kTau = 2;
  const uint32_t beta = PolarizationFactorStar(graph).beta;

  const auto valid_clique = [&graph](const BalancedClique& clique) {
    EXPECT_TRUE(IsBalancedClique(graph, clique));
    EXPECT_TRUE(clique.empty() || clique.SatisfiesThreshold(kTau));
  };
  const auto valid_sweep = [&graph, beta](const GeneralizedMbcResult& r) {
    EXPECT_LE(r.beta, beta);
    for (size_t tau = 0; tau < r.cliques.size(); ++tau) {
      EXPECT_TRUE(IsBalancedClique(graph, r.cliques[tau]));
      EXPECT_TRUE(r.cliques[tau].SatisfiesThreshold(
          static_cast<uint32_t>(tau)));
    }
  };
  const auto parallel = [&](uint32_t threads, ExecutionContext* exec) {
    ParallelMbcOptions options;
    options.num_threads = threads;
    options.exec = exec;
    ParallelMbcResult r = ParallelMaxBalancedCliqueStar(graph, kTau, options);
    valid_clique(r.clique);
    return r.interrupt_reason;
  };

  const std::vector<EntryPoint> entry_points = {
      {"MBC*",
       [&](ExecutionContext* exec) {
         MbcStarOptions options;
         options.exec = exec;
         MbcStarResult r = MaxBalancedCliqueStar(graph, kTau, options);
         valid_clique(r.clique);
         return r.stats.interrupt_reason;
       }},
      {"parallel MBC* x1",
       [&](ExecutionContext* exec) { return parallel(1, exec); }},
      {"parallel MBC* x2",
       [&](ExecutionContext* exec) { return parallel(2, exec); }},
      {"MBC-Heu search",
       [&](ExecutionContext* exec) {
         MbcHeuOptions options;
         options.exec = exec;
         MbcHeuResult r = MbcHeuristicSearch(graph, kTau, options);
         valid_clique(r.clique);
         return r.stats.interrupt_reason;
       }},
      {"MBC baseline",
       [&](ExecutionContext* exec) {
         MbcBaselineOptions options;
         options.exec = exec;
         MbcBaselineResult r = MaxBalancedCliqueBaseline(graph, kTau, options);
         valid_clique(r.clique);
         return r.interrupt_reason;
       }},
      {"MBC-Adv",
       [&](ExecutionContext* exec) {
         MbcAdvOptions options;
         options.exec = exec;
         MbcAdvResult r = MaxBalancedCliqueAdv(graph, kTau, options);
         valid_clique(r.clique);
         return r.interrupt_reason;
       }},
      {"MBCEnum",
       [&](ExecutionContext* exec) {
         MbcEnumOptions options;
         options.exec = exec;
         MbcEnumStats stats = EnumerateMaximalBalancedCliques(
             graph, kTau,
             [&](const BalancedClique& clique) {
               valid_clique(clique);
               EXPECT_FALSE(clique.empty());
             },
             options);
         EXPECT_TRUE(stats.truncated);
         return stats.interrupt_reason;
       }},
      {"tolerant k=1",
       [&](ExecutionContext* exec) {
         MbcTolerantOptions options;
         options.exec = exec;
         MbcTolerantResult r =
             MaxTolerantBalancedClique(graph, kTau, /*tolerance=*/1, options);
         const std::optional<uint32_t> frustrated =
             CountFrustratedEdges(graph, r.clique);
         EXPECT_LE(frustrated.value_or(UINT32_MAX), 1u);
         EXPECT_TRUE(r.clique.empty() || r.clique.SatisfiesThreshold(kTau));
         return r.stats.interrupt_reason;
       }},
      {"PF*",
       [&](ExecutionContext* exec) {
         PfStarOptions options;
         options.exec = exec;
         PfStarResult r = PolarizationFactorStar(graph, options);
         EXPECT_LE(r.beta, beta);
         EXPECT_TRUE(IsBalancedClique(graph, r.witness));
         EXPECT_EQ(r.witness.MinSide(), r.beta);
         return r.stats.interrupt_reason;
       }},
      {"PF-BS",
       [&](ExecutionContext* exec) {
         PfBsOptions options;
         options.exec = exec;
         PfBsResult r = PolarizationFactorBinarySearch(graph, options);
         EXPECT_LE(r.beta, beta);
         return r.interrupt_reason;
       }},
      {"PF-E",
       [&](ExecutionContext* exec) {
         PfEOptions options;
         options.exec = exec;
         PfEResult r = PolarizationFactorEnum(graph, options);
         EXPECT_LE(r.beta, beta);
         return r.interrupt_reason;
       }},
      {"gMBC",
       [&](ExecutionContext* exec) {
         GeneralizedMbcOptions options;
         options.exec = exec;
         GeneralizedMbcResult r = GeneralizedMbc(graph, options);
         valid_sweep(r);
         return r.interrupt_reason;
       }},
      {"gMBC*",
       [&](ExecutionContext* exec) {
         GeneralizedMbcOptions options;
         options.exec = exec;
         GeneralizedMbcResult r = GeneralizedMbcStar(graph, options);
         EXPECT_EQ(r.cliques.size(), static_cast<size_t>(r.beta) + 1);
         valid_sweep(r);
         return r.interrupt_reason;
       }},
      {"(alpha,k)",
       [&](ExecutionContext* exec) {
         AlphaKCliqueOptions options;
         options.alpha = 1.0;
         options.k = 2;
         options.exec = exec;
         AlphaKCliqueResult r = MaxAlphaKClique(graph, options);
         EXPECT_TRUE(IsAlphaKClique(graph, r.clique, 1.0, 2));
         return r.interrupt_reason;
       }},
  };
  for (const EntryPoint& entry : entry_points) {
    SCOPED_TRACE(entry.name);
    ExecutionContext exec(Deadline::After(0.0));
    EXPECT_EQ(entry.run(&exec), InterruptReason::kDeadline);
  }
}

}  // namespace
}  // namespace mbc
