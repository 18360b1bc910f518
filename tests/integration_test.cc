// Copyright 2026 The balanced-clique Authors.
//
// End-to-end pipeline tests: dataset stand-in generation → all solvers →
// consistent, verified answers; mirrors what the experiment binaries do.
#include <gtest/gtest.h>

#include "src/core/mbc_adv.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_star.h"
#include "src/core/verify.h"
#include "src/datasets/registry.h"
#include "src/gmbc/gmbc.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_star.h"
#include "src/polarseeds/metrics.h"
#include "src/polarseeds/polar_seeds.h"

namespace mbc {
namespace {

// A small-scale Bitcoin stand-in exercised through the whole pipeline.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetSpec spec = FindDatasetSpec("Bitcoin").ValueOrDie();
    graph_ = new SignedGraph(GenerateDataset(spec, 1.0));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  static const SignedGraph& graph() { return *graph_; }

 private:
  static SignedGraph* graph_;
};

SignedGraph* PipelineTest::graph_ = nullptr;

TEST_F(PipelineTest, MbcStarFindsPlantedOptimum) {
  const MbcStarResult result = MaxBalancedCliqueStar(graph(), 3);
  EXPECT_TRUE(IsBalancedClique(graph(), result.clique));
  // Planted cliques: (5,5) and (4,7) — |C*| at τ=3 is at least 11.
  EXPECT_GE(result.clique.size(), 11u);
}

TEST_F(PipelineTest, SolversAgree) {
  const size_t star = MaxBalancedCliqueStar(graph(), 3).clique.size();
  const MbcAdvResult adv = MaxBalancedCliqueAdv(graph(), 3);
  EXPECT_EQ(adv.interrupt_reason, InterruptReason::kNone);
  EXPECT_EQ(star, adv.clique.size());
  ExecutionContext baseline_exec(Deadline::After(60.0));
  MbcBaselineOptions baseline_options;
  baseline_options.exec = &baseline_exec;
  const MbcBaselineResult baseline =
      MaxBalancedCliqueBaseline(graph(), 3, baseline_options);
  if (baseline.interrupt_reason == InterruptReason::kNone) {
    EXPECT_EQ(star, baseline.clique.size());
  }
}

TEST_F(PipelineTest, PolarizationFactorConsistent) {
  const PfStarResult star = PolarizationFactorStar(graph());
  EXPECT_GE(star.beta, 5u);  // planted (5,5)
  EXPECT_EQ(star.beta, PolarizationFactorBinarySearch(graph()).beta);
  EXPECT_TRUE(IsBalancedClique(graph(), star.witness));
}

TEST_F(PipelineTest, GeneralizedSolutionsConsistent) {
  const GeneralizedMbcResult gmbc = GeneralizedMbcStar(graph());
  const PfStarResult pf = PolarizationFactorStar(graph());
  EXPECT_EQ(gmbc.beta, pf.beta);
  // The τ=3 entry matches the direct MBC* run.
  const size_t direct = MaxBalancedCliqueStar(graph(), 3).clique.size();
  ASSERT_GE(gmbc.cliques.size(), 4u);
  EXPECT_EQ(gmbc.cliques[3].size(), direct);
}

TEST_F(PipelineTest, MaxBalancedCliqueBeatsPolarSeedsOnPolarity) {
  // The paper's Figure 5 claim, checked end-to-end on the stand-in.
  const MbcStarResult best = MaxBalancedCliqueStar(graph(), 3);
  const PolarizedCommunity clique_community{best.clique.left,
                                            best.clique.right};
  const double clique_polarity = Polarity(graph(), clique_community);

  const auto seeds = PickGoodSeedPairs(graph(), 10, 3, 42);
  ASSERT_FALSE(seeds.empty());
  double polarseeds_total = 0.0;
  for (const auto& [u, v] : seeds) {
    polarseeds_total += Polarity(graph(), PolarSeedsCommunity(graph(), u, v));
  }
  const double polarseeds_avg =
      polarseeds_total / static_cast<double>(seeds.size());
  EXPECT_GT(clique_polarity, polarseeds_avg);
}

}  // namespace
}  // namespace mbc
