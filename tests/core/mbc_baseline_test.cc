// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_baseline.h"

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/verify.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::Figure3Graph;
using testing_util::RandomSignedGraph;

TEST(MbcBaselineTest, PaperFigure2Example) {
  const MbcBaselineResult result =
      MaxBalancedCliqueBaseline(Figure2Graph(), 2);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kNone);
  EXPECT_EQ(result.clique.size(), 6u);
}

TEST(MbcBaselineTest, PaperFigure3Example) {
  EXPECT_EQ(MaxBalancedCliqueBaseline(Figure3Graph(), 0).clique.size(), 3u);
  EXPECT_EQ(MaxBalancedCliqueBaseline(Figure3Graph(), 1).clique.size(), 2u);
}

TEST(MbcBaselineTest, MatchesBruteForceRandomized) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SignedGraph graph = RandomSignedGraph(15, 55, 0.45, seed);
    for (uint32_t tau : {0u, 1u, 2u, 3u}) {
      const BalancedClique expected = BruteForceMaxBalancedClique(graph, tau);
      const MbcBaselineResult result = MaxBalancedCliqueBaseline(graph, tau);
      EXPECT_EQ(result.interrupt_reason, InterruptReason::kNone);
      EXPECT_EQ(result.clique.size(), expected.size())
          << "seed=" << seed << " tau=" << tau;
      if (!result.clique.empty()) {
        EXPECT_TRUE(IsBalancedClique(graph, result.clique));
      }
    }
  }
}

TEST(MbcBaselineTest, NoEdgeReductionVariantAgrees) {
  for (uint64_t seed = 4; seed <= 8; ++seed) {
    const SignedGraph graph = RandomSignedGraph(15, 55, 0.45, seed);
    MbcBaselineOptions no_er;
    no_er.apply_edge_reduction = false;
    EXPECT_EQ(MaxBalancedCliqueBaseline(graph, 2, no_er).clique.size(),
              MaxBalancedCliqueBaseline(graph, 2).clique.size());
  }
}

TEST(MbcBaselineTest, TimeLimitProducesPartialResult) {
  const SignedGraph graph = RandomSignedGraph(300, 4000, 0.45, 2);
  ExecutionContext exec(Deadline::After(0.0));  // expire immediately
  MbcBaselineOptions options;
  options.exec = &exec;
  const MbcBaselineResult result =
      MaxBalancedCliqueBaseline(graph, 1, options);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kDeadline);
  // Whatever was found must still be valid.
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

TEST(MbcBaselineTest, CountsRecursiveCalls) {
  const MbcBaselineResult result =
      MaxBalancedCliqueBaseline(Figure2Graph(), 2);
  EXPECT_GT(result.recursive_calls, 1u);
}

}  // namespace
}  // namespace mbc
