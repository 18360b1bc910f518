// Copyright 2026 The balanced-clique Authors.
//
// Polarization-factor algorithms: PF-E, PF-BS, PF* and PF*-DOrder must all
// equal the brute-force β(G).
#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_e.h"
#include "src/pf/pf_star.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::Figure3Graph;
using testing_util::RandomSignedGraph;

TEST(PfStarTest, PaperFigure2Example) {
  // "The polarization factor of the signed graph in Figure 2 is 3."
  const PfStarResult result = PolarizationFactorStar(Figure2Graph());
  EXPECT_EQ(result.beta, 3u);
  EXPECT_TRUE(IsBalancedClique(Figure2Graph(), result.witness));
  EXPECT_EQ(result.witness.MinSide(), 3u);
}

TEST(PfStarTest, Figure3Example) {
  EXPECT_EQ(PolarizationFactorStar(Figure3Graph()).beta, 1u);
}

TEST(PfStarTest, AllPositiveGraphHasBetaZero) {
  const SignedGraph graph =
      testing_util::FromText("0 1 1\n1 2 1\n0 2 1\n");
  EXPECT_EQ(PolarizationFactorStar(graph).beta, 0u);
}

TEST(PfStarTest, EmptyGraph) {
  EXPECT_EQ(PolarizationFactorStar(SignedGraph()).beta, 0u);
}

TEST(PfStarTest, WitnessAlwaysValid) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SignedGraph graph = RandomSignedGraph(60, 350, 0.45, seed);
    const PfStarResult result = PolarizationFactorStar(graph);
    EXPECT_TRUE(IsBalancedClique(graph, result.witness));
    EXPECT_EQ(result.witness.MinSide(), result.beta);
  }
}

// A loose heuristic seed must not break PF* (the per-network DCC loop).
TEST(PfStarTest, CorrectWithoutHeuristicSeed) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const SignedGraph graph = RandomSignedGraph(16, 60, 0.5, seed);
    PfStarOptions options;
    options.run_heuristic = false;
    EXPECT_EQ(PolarizationFactorStar(graph, options).beta,
              BruteForcePolarizationFactor(graph))
        << "seed=" << seed;
  }
}

TEST(PfStarTest, RecoversPlantedBeta) {
  const SignedGraph base = RandomSignedGraph(2000, 9000, 0.35, 3);
  const SignedGraph graph = PlantBalancedCliques(base, {{7, 9}}, 11);
  EXPECT_GE(PolarizationFactorStar(graph).beta, 7u);
}

struct PfCase {
  uint64_t seed;
  double neg_ratio;
};

class PfSweep : public ::testing::TestWithParam<PfCase> {};

TEST_P(PfSweep, AllAlgorithmsMatchBruteForce) {
  const SignedGraph graph =
      RandomSignedGraph(15, 60, GetParam().neg_ratio, GetParam().seed);
  const uint32_t expected = BruteForcePolarizationFactor(graph);
  EXPECT_EQ(PolarizationFactorStar(graph).beta, expected) << "PF*";
  PfStarOptions dorder;
  dorder.ordering = PfStarOptions::Ordering::kDegeneracy;
  EXPECT_EQ(PolarizationFactorStar(graph, dorder).beta, expected)
      << "PF*-DOrder";
  EXPECT_EQ(PolarizationFactorBinarySearch(graph).beta, expected) << "PF-BS";
  EXPECT_EQ(PolarizationFactorEnum(graph).beta, expected) << "PF-E";
}

std::vector<PfCase> MakePfSweep() {
  std::vector<PfCase> cases;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    cases.push_back({seed, 0.45});
    cases.push_back({seed + 50, 0.65});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, PfSweep,
                         ::testing::ValuesIn(MakePfSweep()),
                         [](const ::testing::TestParamInfo<PfCase>& pf_info) {
                           return "seed" + std::to_string(pf_info.param.seed);
                         });

// On medium graphs (brute force infeasible) the fast variants must agree.
TEST(PfConsistencyTest, VariantsAgreeOnMediumGraphs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const SignedGraph graph = RandomSignedGraph(100, 600, 0.4, seed);
    const uint32_t star = PolarizationFactorStar(graph).beta;
    PfStarOptions dorder;
    dorder.ordering = PfStarOptions::Ordering::kDegeneracy;
    EXPECT_EQ(star, PolarizationFactorStar(graph, dorder).beta);
    EXPECT_EQ(star, PolarizationFactorBinarySearch(graph).beta);
  }
}

TEST(PfBsTest, CountsProbes) {
  const PfBsResult result = PolarizationFactorBinarySearch(Figure2Graph());
  EXPECT_GT(result.num_probes, 0u);
  EXPECT_EQ(result.beta, 3u);
}

TEST(PfETest, TimeLimitFlagsTruncation) {
  const SignedGraph graph = RandomSignedGraph(200, 2500, 0.5, 4);
  ExecutionContext exec(Deadline::After(0.0));
  PfEOptions options;
  options.exec = &exec;
  const PfEResult result = PolarizationFactorEnum(graph, options);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kDeadline);
}

}  // namespace
}  // namespace mbc
