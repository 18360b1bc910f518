// Copyright 2026 The balanced-clique Authors.
#include "src/core/mdc_solver.h"

#include <atomic>
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"

namespace mbc {
namespace {

// A dichromatic graph where vertex 0 (L) joins an (L={0,1}, R={2,3})
// 4-clique, and there is a bigger clique {4,5,6} not containing 0.
DichromaticGraph SmallInstance() {
  DichromaticGraph graph(7);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(1, Side::kLeft);
  graph.SetSide(2, Side::kRight);
  graph.SetSide(3, Side::kRight);
  graph.SetSide(4, Side::kLeft);
  graph.SetSide(5, Side::kRight);
  graph.SetSide(6, Side::kRight);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = a + 1; b < 4; ++b) graph.AddEdge(a, b);
  }
  graph.AddEdge(4, 5);
  graph.AddEdge(4, 6);
  graph.AddEdge(5, 6);
  return graph;
}

Bitset CandidatesFor(const DichromaticGraph& graph, uint32_t seed_vertex) {
  Bitset cand = graph.AdjacencyOf(seed_vertex);
  return cand;
}

TEST(MdcSolverTest, FindsCliqueThroughSeed) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  const bool found =
      solver.Solve({0}, CandidatesFor(graph, 0), /*tau_l=*/0, /*tau_r=*/1,
                   /*lower_bound=*/0, &best);
  ASSERT_TRUE(found);
  EXPECT_EQ(best.size(), 4u);
  std::sort(best.begin(), best.end());
  EXPECT_EQ(best, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(MdcSolverTest, LowerBoundSuppressesEqualSolutions) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  EXPECT_FALSE(solver.Solve({0}, CandidatesFor(graph, 0), 0, 1,
                            /*lower_bound=*/4, &best));
}

TEST(MdcSolverTest, ThresholdsRuleOutInfeasible) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  // Need 3 R-vertices adjacent to 0; only 2 exist.
  EXPECT_FALSE(solver.Solve({0}, CandidatesFor(graph, 0), 0, 3, 0, &best));
}

TEST(MdcSolverTest, NegativeThresholdsActSatisfied) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  ASSERT_TRUE(solver.Solve({0}, CandidatesFor(graph, 0), -5, -5, 0, &best));
  EXPECT_EQ(best.size(), 4u);  // still maximizes
}

TEST(MdcSolverTest, ExistenceModeStopsEarly) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  ASSERT_TRUE(solver.Solve({0}, CandidatesFor(graph, 0), 0, 1, 1, &best,
                           /*existence_only=*/true));
  EXPECT_GE(best.size(), 2u);
  EXPECT_LE(solver.branches(), 10u);
}

TEST(MdcSolverTest, SeedOnlyCountsTowardSize) {
  DichromaticGraph graph(2);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(1, Side::kRight);
  graph.AddEdge(0, 1);
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  // Seed {0} alone already beats lower_bound 0 when thresholds permit.
  ASSERT_TRUE(solver.Solve({0}, Bitset(2), 0, 0, 0, &best));
  EXPECT_EQ(best, (std::vector<uint32_t>{0}));
}

DichromaticGraph CompleteDichromatic(uint32_t n) {
  DichromaticGraph graph(n);
  for (uint32_t v = 0; v < n; ++v) {
    graph.SetSide(v, v % 2 == 0 ? Side::kLeft : Side::kRight);
  }
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) graph.AddEdge(a, b);
  }
  return graph;
}

// A planted clique must be recognized by the clique shortcut in a single
// branch — the regression guard for the shortcut's pool-size gate.
TEST(MdcSolverTest, CliqueShortcutCollapsesPlantedClique) {
  const DichromaticGraph graph = CompleteDichromatic(6);
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  ASSERT_TRUE(solver.Solve({0}, graph.AdjacencyOf(0), -5, -5, 0, &best));
  EXPECT_EQ(best.size(), 6u);
  EXPECT_EQ(solver.branches(), 1u);
}

// Above the gate cap the shortcut's O(E) scan is deferred to the coloring
// bound; disabling the coloring bound makes the shortcut unconditional
// again. Either way the answer is the full clique.
TEST(MdcSolverTest, CliqueShortcutGateOnLargePools) {
  const DichromaticGraph graph = CompleteDichromatic(80);
  MdcSolver gated(graph);
  std::vector<uint32_t> best;
  ASSERT_TRUE(gated.Solve({0}, graph.AdjacencyOf(0), -5, -5, 0, &best));
  EXPECT_EQ(best.size(), 80u);
  EXPECT_GT(gated.branches(), 1u);

  MdcSolver unconditional(graph);
  unconditional.SetOptions({true, false});
  best.clear();
  ASSERT_TRUE(
      unconditional.Solve({0}, graph.AdjacencyOf(0), -5, -5, 0, &best));
  EXPECT_EQ(best.size(), 80u);
  EXPECT_EQ(unconditional.branches(), 1u);
}

// Differential test against brute-force enumeration on random graphs.
TEST(MdcSolverTest, MatchesBruteForceRandomized) {
  Rng rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 10;
    DichromaticGraph graph(n);
    for (uint32_t v = 0; v < n; ++v) {
      graph.SetSide(v, rng.NextBernoulli(0.5) ? Side::kLeft : Side::kRight);
    }
    graph.SetSide(0, Side::kLeft);
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        if (rng.NextBernoulli(0.5)) graph.AddEdge(a, b);
      }
    }
    const int32_t tau_l = static_cast<int32_t>(rng.NextBounded(3));
    const int32_t tau_r = static_cast<int32_t>(rng.NextBounded(3));

    // Brute force: all subsets containing 0 that form cliques and satisfy
    // per-side thresholds (seed 0 counts toward L).
    size_t brute_best = 0;
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      if (!(mask & 1u)) continue;
      std::vector<uint32_t> set;
      for (uint32_t v = 0; v < n; ++v) {
        if (mask & (1u << v)) set.push_back(v);
      }
      bool clique = true;
      int left = 0;
      int right = 0;
      for (size_t i = 0; i < set.size() && clique; ++i) {
        (graph.IsLeft(set[i]) ? left : right) += 1;
        for (size_t j = i + 1; j < set.size(); ++j) {
          if (!graph.HasEdge(set[i], set[j])) {
            clique = false;
            break;
          }
        }
      }
      if (clique && left >= tau_l + 1 && right >= tau_r) {
        // tau_l + 1 accounts for the seed being an L vertex; see below.
        brute_best = std::max(brute_best, set.size());
      }
    }

    MdcSolver solver(graph);
    std::vector<uint32_t> best;
    const bool found =
        solver.Solve({0}, graph.AdjacencyOf(0), tau_l, tau_r, 0, &best);
    if (brute_best == 0) {
      EXPECT_FALSE(found) << "trial=" << trial;
    } else {
      ASSERT_TRUE(found) << "trial=" << trial;
      EXPECT_EQ(best.size(), brute_best) << "trial=" << trial;
      // Validate the clique and thresholds.
      int left = 0;
      int right = 0;
      for (size_t i = 0; i < best.size(); ++i) {
        (graph.IsLeft(best[i]) ? left : right) += 1;
        for (size_t j = i + 1; j < best.size(); ++j) {
          EXPECT_TRUE(graph.HasEdge(best[i], best[j]));
        }
      }
      EXPECT_GE(left, tau_l + 1);
      EXPECT_GE(right, tau_r);
    }
  }
}


// --- Shared-incumbent (tie-preserving) mode ---

TEST(MdcSolverSharedIncumbentTest, TiesAreOfferedNotSuppressed) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::atomic<size_t> bound{0};
  std::vector<std::vector<uint32_t>> offers;
  solver.SetSharedIncumbent(&bound, [&offers](
                                        const std::vector<uint32_t>& clique) {
    offers.push_back(clique);
  });
  std::vector<uint32_t> best;
  // Exact-mode Solve with lower_bound=4 suppresses the size-4 clique
  // (LowerBoundSuppressesEqualSolutions above); tie mode must offer it.
  solver.Solve({0}, CandidatesFor(graph, 0), 0, 1, /*lower_bound=*/4, &best);
  bool saw_tie = false;
  for (std::vector<uint32_t> offer : offers) {
    std::sort(offer.begin(), offer.end());
    saw_tie |= offer == std::vector<uint32_t>{0, 1, 2, 3};
  }
  EXPECT_TRUE(saw_tie);
}

TEST(MdcSolverSharedIncumbentTest, SharedBoundPrunesStrictlySmaller) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::atomic<size_t> bound{10};  // fleet already has a 10-clique
  std::vector<std::vector<uint32_t>> offers;
  solver.SetSharedIncumbent(&bound, [&offers](
                                        const std::vector<uint32_t>& clique) {
    offers.push_back(clique);
  });
  std::vector<uint32_t> best;
  solver.Solve({0}, CandidatesFor(graph, 0), 0, 1, /*lower_bound=*/0, &best);
  EXPECT_TRUE(offers.empty());
}

TEST(MdcSolverSharedIncumbentTest, ClearRestoresExactSemantics) {
  const DichromaticGraph graph = SmallInstance();
  MdcSolver solver(graph);
  std::atomic<size_t> bound{0};
  solver.SetSharedIncumbent(&bound, [](const std::vector<uint32_t>&) {});
  solver.ClearSharedIncumbent();
  std::vector<uint32_t> best;
  EXPECT_FALSE(solver.Solve({0}, CandidatesFor(graph, 0), 0, 1,
                            /*lower_bound=*/4, &best));
  EXPECT_TRUE(solver.Solve({0}, CandidatesFor(graph, 0), 0, 1,
                           /*lower_bound=*/3, &best));
  EXPECT_EQ(best.size(), 4u);
}

}  // namespace
}  // namespace mbc
