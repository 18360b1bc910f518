// Copyright 2026 The balanced-clique Authors.
//
// Cooperative cancellation across threads: a worker pool running the
// parallel MBC* solver must observe a cancel requested from another
// thread, unwind promptly at the next checkpoints, and still hand back a
// valid (best-effort) clique tagged kCancelled.
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/execution.h"
#include "src/common/timer.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/mbc_tolerant.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

TEST(CancellationTest, PreCancelledContextReturnsImmediately) {
  const SignedGraph base = RandomSignedGraph(500, 4000, 0.4, 19);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 4}}, 7);
  ExecutionContext exec;
  exec.RequestCancel();
  ParallelMbcOptions options;
  options.num_threads = 4;
  options.exec = &exec;
  const ParallelMbcResult result =
      ParallelMaxBalancedCliqueStar(graph, 2, options);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kCancelled);
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

TEST(CancellationTest, CrossThreadCancelStopsParallelSolverPromptly) {
  // Dense enough that the full search takes several seconds (measured
  // ~7s at -O2), so a 75ms cancel always lands mid-search.
  const SignedGraph base = RandomSignedGraph(1000, 200000, 0.5, 23);
  const SignedGraph graph = PlantBalancedCliques(base, {{5, 5}}, 11);

  ExecutionContext exec;
  // Fallback so the test cannot hang if cancellation were broken (the
  // EXPECT on the reason below would still flag the bug as kDeadline).
  exec.set_deadline(Deadline::After(30.0));

  std::thread canceller([&exec] {
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
    exec.RequestCancel();
  });

  Timer timer;
  ParallelMbcOptions options;
  options.num_threads = 4;
  options.exec = &exec;
  const ParallelMbcResult result =
      ParallelMaxBalancedCliqueStar(graph, 2, options);
  const double elapsed = timer.ElapsedSeconds();
  canceller.join();

  EXPECT_EQ(result.interrupt_reason, InterruptReason::kCancelled);
  // Prompt return: cancel fires at ~75ms; each worker stops at its next
  // checkpoint. Allow generous slack for slow CI machines while still
  // catching a solver that ignores the token and runs to completion
  // (~7s on this instance).
  EXPECT_LT(elapsed, 5.0);
  // The partial result is still a valid balanced clique.
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

TEST(CancellationTest, SequentialSolverSeesCancelFromOtherThread) {
  // Same hardness rationale as above: the uncancelled sequential search
  // takes >1s on this instance, so a 50ms cancel always interrupts it.
  const SignedGraph base = RandomSignedGraph(800, 120000, 0.5, 29);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 5}}, 13);

  ExecutionContext exec;
  exec.set_deadline(Deadline::After(30.0));
  std::thread canceller([&exec] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    exec.RequestCancel();
  });

  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  canceller.join();

  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kCancelled);
}

TEST(CancellationTest, HeuristicTierObservesPreCancelledContext) {
  // The heuristic tier reports the cancel but still completes its first
  // greedy anchor (an O(m) pass): a brownout caller always gets at least
  // one valid lower-bound clique, never an empty hand.
  const SignedGraph base = RandomSignedGraph(500, 4000, 0.4, 19);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 4}}, 7);
  ExecutionContext exec;
  exec.RequestCancel();
  MbcHeuOptions options;
  options.exec = &exec;
  const MbcHeuResult result = MbcHeuristicSearch(graph, 0, options);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kCancelled);
  EXPECT_FALSE(result.clique.empty());
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

TEST(CancellationTest, MbcHeuristicCompletesFirstAnchorWhenCancelled) {
  // MbcHeuristic's first greedy anchor runs to completion under a
  // cancelled context, so MBC* and PF* still get their lower bound.
  ExecutionContext exec;
  exec.RequestCancel();
  const SignedGraph graph = testing_util::Figure2Graph();
  const BalancedClique clique = MbcHeuristic(graph, 2, &exec);
  EXPECT_EQ(clique.size(), 6u);
  EXPECT_TRUE(IsBalancedClique(graph, clique));
  EXPECT_EQ(exec.reason(), InterruptReason::kCancelled);
}

TEST(CancellationTest, HeuristicTierSeesCancelFromOtherThread) {
  const SignedGraph base = RandomSignedGraph(2000, 120000, 0.45, 31);
  const SignedGraph graph = PlantBalancedCliques(base, {{5, 5}}, 17);
  ExecutionContext exec;
  exec.set_deadline(Deadline::After(30.0));
  std::thread canceller([&exec] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    exec.RequestCancel();
  });
  MbcHeuOptions options;
  options.exec = &exec;
  options.local_search_iterations = 100000;  // far beyond the cancel point
  const MbcHeuResult result = MbcHeuristicSearch(graph, 1, options);
  canceller.join();
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kCancelled);
  if (!result.clique.empty()) {
    EXPECT_TRUE(IsBalancedClique(graph, result.clique));
    EXPECT_TRUE(result.clique.SatisfiesThreshold(1));
  }
}

TEST(CancellationTest, TolerantSolverSeesCancelFromOtherThread) {
  // The tolerant branch-and-bound explores a much larger space than the
  // exact solver on the same instance (the budget admits frustrated
  // cliques), so a moderate graph is already slow enough to cancel.
  const SignedGraph base = RandomSignedGraph(600, 60000, 0.5, 37);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 4}}, 19);
  ExecutionContext exec;
  exec.set_deadline(Deadline::After(30.0));
  std::thread canceller([&exec] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    exec.RequestCancel();
  });
  MbcTolerantOptions options;
  options.exec = &exec;
  const MbcTolerantResult result =
      MaxTolerantBalancedClique(graph, 2, /*tolerance=*/2, options);
  canceller.join();
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kCancelled);
  if (!result.clique.empty()) {
    const std::optional<uint32_t> frustration =
        CountFrustratedEdges(graph, result.clique);
    ASSERT_TRUE(frustration.has_value());
    EXPECT_EQ(*frustration, result.frustrated_edges);
    EXPECT_LE(*frustration, 2u);
  }
}

}  // namespace
}  // namespace mbc
