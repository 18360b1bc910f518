// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_adv.h"

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/verify.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::Figure3Graph;
using testing_util::RandomSignedGraph;

TEST(MbcAdvTest, PaperFigure2Example) {
  const MbcAdvResult result = MaxBalancedCliqueAdv(Figure2Graph(), 2);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kNone);
  EXPECT_EQ(result.clique.size(), 6u);
  EXPECT_TRUE(IsBalancedClique(Figure2Graph(), result.clique));
}

TEST(MbcAdvTest, PaperFigure3Example) {
  EXPECT_EQ(MaxBalancedCliqueAdv(Figure3Graph(), 0).clique.size(), 3u);
  EXPECT_EQ(MaxBalancedCliqueAdv(Figure3Graph(), 1).clique.size(), 2u);
}

TEST(MbcAdvTest, MatchesBruteForceRandomized) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SignedGraph graph = RandomSignedGraph(16, 60, 0.45, seed);
    for (uint32_t tau : {0u, 1u, 2u, 3u}) {
      const BalancedClique expected = BruteForceMaxBalancedClique(graph, tau);
      const MbcAdvResult result = MaxBalancedCliqueAdv(graph, tau);
      EXPECT_EQ(result.interrupt_reason, InterruptReason::kNone);
      EXPECT_EQ(result.clique.size(), expected.size())
          << "seed=" << seed << " tau=" << tau;
      if (!result.clique.empty()) {
        EXPECT_TRUE(IsBalancedClique(graph, result.clique));
        EXPECT_TRUE(result.clique.SatisfiesThreshold(tau));
      }
    }
  }
}

TEST(MbcAdvTest, ReportsNetworkAndBranchCounts) {
  const SignedGraph graph = RandomSignedGraph(200, 1200, 0.4, 5);
  const MbcAdvResult result = MaxBalancedCliqueAdv(graph, 1);
  EXPECT_GT(result.num_networks_built, 0u);
}

}  // namespace
}  // namespace mbc
