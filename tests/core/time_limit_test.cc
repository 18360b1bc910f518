// Copyright 2026 The balanced-clique Authors.
//
// Failure-injection tests for the execution governor's wall-clock path:
// expired budgets must degrade gracefully (valid partial results, flags
// set), never crash or return invalid cliques. All interrupt trips here
// are deterministic: ExecutionContext::Checkpoint() probes on its very
// first call, so a zero deadline fires before any search work happens.
#include <gtest/gtest.h>

#include "src/common/execution.h"
#include "src/core/mbc_star.h"
#include "src/core/reductions.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/gmbc/gmbc.h"
#include "src/pf/pf_star.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

TEST(TimeLimitTest, MbcStarZeroBudgetStillReturnsValidClique) {
  const SignedGraph base = RandomSignedGraph(800, 6000, 0.4, 3);
  const SignedGraph graph = PlantBalancedCliques(base, {{5, 6}}, 1);
  MbcStarOptions options;
  options.time_limit_seconds = 0.0;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  // The heuristic runs before the budget check, so a clique is returned.
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, MbcStarZeroBudgetKeepsFirstAnchorGreedy) {
  // The heuristic's first anchor completes under an expired budget, so
  // the deadline answer is the greedy clique, not an empty one.
  const SignedGraph graph = testing_util::Figure2Graph();
  MbcStarOptions options;
  options.time_limit_seconds = 0.0;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  EXPECT_FALSE(result.clique.empty());
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
  EXPECT_TRUE(result.clique.SatisfiesThreshold(2));
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, MbcStarGenerousBudgetIsExact) {
  const SignedGraph graph = testing_util::Figure2Graph();
  MbcStarOptions options;
  options.time_limit_seconds = 1e6;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  EXPECT_FALSE(result.stats.timed_out);
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
  PfStarOptions options;
  options.time_limit_seconds = 0.0;
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
  GeneralizedMbcOptions options;
  options.time_limit_seconds = 0.0;
  const GeneralizedMbcResult result = GeneralizedMbcStar(graph, options);
  ASSERT_EQ(result.cliques.size(), static_cast<size_t>(result.beta) + 1);
  for (uint32_t tau = 0; tau <= result.beta; ++tau) {
    EXPECT_TRUE(IsBalancedClique(graph, result.cliques[tau]));
    EXPECT_TRUE(result.cliques[tau].SatisfiesThreshold(tau));
  }
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, ExpiredBudgetSetsFlagOnHardInstance) {
  const SignedGraph graph = RandomSignedGraph(3000, 60000, 0.45, 13);
  MbcStarOptions options;
  options.time_limit_seconds = 0.0;
  options.run_heuristic = false;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 1, options);
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, SharedContextDeadlineIsObservedBySolver) {
  // A caller-owned context with an already-expired deadline must win over
  // (and not be clobbered by) the legacy time_limit_seconds option.
  const SignedGraph graph = RandomSignedGraph(400, 3000, 0.4, 17);
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  options.time_limit_seconds = 1e6;  // ignored: exec takes precedence
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 1, options);
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

}  // namespace
}  // namespace mbc
