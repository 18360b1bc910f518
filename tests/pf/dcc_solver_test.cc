// Copyright 2026 The balanced-clique Authors.
#include "src/pf/dcc_solver.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"

namespace mbc {
namespace {

DichromaticGraph TwoByTwoCliquePlusNoise() {
  // (L={0,1}, R={2,3}) complete; pendant R vertex 4 attached to 0.
  DichromaticGraph graph(5);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(1, Side::kLeft);
  graph.SetSide(2, Side::kRight);
  graph.SetSide(3, Side::kRight);
  graph.SetSide(4, Side::kRight);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = a + 1; b < 4; ++b) graph.AddEdge(a, b);
  }
  graph.AddEdge(0, 4);
  return graph;
}

TEST(DccSolverTest, FindsFeasibleClique) {
  const DichromaticGraph graph = TwoByTwoCliquePlusNoise();
  DccSolver solver(graph);
  std::vector<uint32_t> witness;
  EXPECT_TRUE(solver.Check(graph.AllVertices(), 2, 2, &witness));
  // The witness is a clique with exactly 2 L and 2 R vertices.
  int left = 0;
  for (size_t i = 0; i < witness.size(); ++i) {
    left += graph.IsLeft(witness[i]);
    for (size_t j = i + 1; j < witness.size(); ++j) {
      EXPECT_TRUE(graph.HasEdge(witness[i], witness[j]));
    }
  }
  EXPECT_EQ(witness.size(), 4u);
  EXPECT_EQ(left, 2);
}

TEST(DccSolverTest, RejectsInfeasibleThresholds) {
  const DichromaticGraph graph = TwoByTwoCliquePlusNoise();
  DccSolver solver(graph);
  EXPECT_FALSE(solver.Check(graph.AllVertices(), 3, 2));
  EXPECT_FALSE(solver.Check(graph.AllVertices(), 2, 3));
}

TEST(DccSolverTest, ZeroThresholdsTriviallyTrue) {
  DichromaticGraph empty(3);
  DccSolver solver(empty);
  std::vector<uint32_t> witness{99};
  EXPECT_TRUE(solver.Check(empty.AllVertices(), 0, 0, &witness));
  EXPECT_TRUE(witness.empty());
}

TEST(DccSolverTest, NegativeThresholdsClamp) {
  DichromaticGraph empty(2);
  DccSolver solver(empty);
  EXPECT_TRUE(solver.Check(empty.AllVertices(), -1, -2));
}

TEST(DccSolverTest, RespectsCandidateSubset) {
  const DichromaticGraph graph = TwoByTwoCliquePlusNoise();
  DccSolver solver(graph);
  Bitset no_right(5);
  no_right.Set(0);
  no_right.Set(1);
  EXPECT_FALSE(solver.Check(no_right, 1, 1));
  EXPECT_TRUE(solver.Check(no_right, 2, 0));
}

// Differential test against subset enumeration.
TEST(DccSolverTest, MatchesBruteForceRandomized) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t n = 10;
    DichromaticGraph graph(n);
    for (uint32_t v = 0; v < n; ++v) {
      graph.SetSide(v, rng.NextBernoulli(0.5) ? Side::kLeft : Side::kRight);
    }
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        if (rng.NextBernoulli(0.45)) graph.AddEdge(a, b);
      }
    }
    const uint32_t tau_l = static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t tau_r = static_cast<uint32_t>(rng.NextBounded(4));

    bool brute = false;
    for (uint32_t mask = 0; mask < (1u << n) && !brute; ++mask) {
      std::vector<uint32_t> set;
      for (uint32_t v = 0; v < n; ++v) {
        if (mask & (1u << v)) set.push_back(v);
      }
      bool clique = true;
      uint32_t left = 0;
      uint32_t right = 0;
      for (size_t i = 0; i < set.size() && clique; ++i) {
        (graph.IsLeft(set[i]) ? left : right) += 1;
        for (size_t j = i + 1; j < set.size(); ++j) {
          if (!graph.HasEdge(set[i], set[j])) {
            clique = false;
            break;
          }
        }
      }
      brute = clique && left >= tau_l && right >= tau_r;
    }

    DccSolver solver(graph);
    EXPECT_EQ(solver.Check(graph.AllVertices(),
                           static_cast<int32_t>(tau_l),
                           static_cast<int32_t>(tau_r)),
              brute)
        << "trial=" << trial << " tau_l=" << tau_l << " tau_r=" << tau_r;
  }
}

}  // namespace
}  // namespace mbc
