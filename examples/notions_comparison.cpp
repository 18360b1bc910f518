// Copyright 2026 The balanced-clique Authors.
//
// Comparison of the signed-graph clique notions discussed in the paper's
// Related Work (Section VII) on one synthetic social network:
//   * maximum balanced clique (this paper),
//   * maximum trusted clique (all-positive; Hao et al.),
//   * maximum (α, k)-clique (Li et al.),
//   * a large balanced subgraph (Ordozgoiti et al.; clique-ness dropped),
// plus the whole-graph balance diagnostics. Shows why balanced cliques
// occupy their own niche: trusted cliques ignore opposition entirely,
// (α, k)-cliques ignore the balance structure, and balanced subgraphs are
// not guaranteed to stay balanced when absent edges appear.
#include <cstdio>

#include "src/core/mbc_star.h"
#include "src/datasets/generators.h"
#include "src/graph/balance.h"
#include "src/graph/statistics.h"
#include "src/pf/pf_star.h"
#include "src/related/balanced_subgraph.h"
#include "src/related/related_cliques.h"

int main() {
  mbc::CommunityGraphOptions options;
  options.num_vertices = 4000;
  options.num_edges = 30000;
  options.num_communities = 6;
  options.negative_ratio = 0.35;
  options.seed = 7;
  const mbc::SignedGraph base = mbc::GenerateCommunitySignedGraph(options);
  const mbc::SignedGraph graph =
      mbc::PlantBalancedCliques(base, {{6, 7}}, 3);

  std::printf("network: %u vertices, %llu edges (%.0f%% negative)\n",
              graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()),
              100.0 * graph.NegativeEdgeRatio());
  const mbc::SignedTriangleCensus census = mbc::CountSignedTriangles(graph);
  std::printf("balance index: %.3f (%llu of %llu triangles balanced)\n",
              census.BalanceIndex(),
              static_cast<unsigned long long>(census.balanced()),
              static_cast<unsigned long long>(census.total()));
  const mbc::BalanceCheck whole = mbc::CheckGraphBalance(graph);
  std::printf("globally balanced: %s\n\n", whole.balanced ? "yes" : "no");

  // 1. Maximum balanced clique (τ = 3).
  const mbc::MbcStarResult balanced = mbc::MaxBalancedCliqueStar(graph, 3);
  std::printf("maximum balanced clique (tau=3):    %zu vertices (%zu|%zu)\n",
              balanced.clique.size(), balanced.clique.left.size(),
              balanced.clique.right.size());

  // 2. Maximum trusted clique (all positive edges).
  const std::vector<mbc::VertexId> trusted = mbc::MaxTrustedClique(graph);
  std::printf("maximum trusted clique:             %zu vertices "
              "(opposition invisible)\n",
              trusted.size());

  // 3. Maximum (α, k)-clique with α = 1, k = 2.
  mbc::ExecutionContext ak_exec(mbc::Deadline::After(30.0));
  mbc::AlphaKCliqueOptions ak;
  ak.alpha = 1.0;
  ak.k = 2;
  ak.exec = &ak_exec;
  const mbc::AlphaKCliqueResult alpha_k = mbc::MaxAlphaKClique(graph, ak);
  std::printf("maximum (1,2)-clique:               %zu vertices "
              "(balance structure ignored)\n",
              alpha_k.clique.size());

  // 4. Large balanced subgraph (no clique requirement).
  const mbc::BalancedSubgraphResult subgraph =
      mbc::LargeBalancedSubgraph(graph, 11);
  std::printf("large balanced subgraph heuristic:  %zu vertices "
              "(not a clique; may unbalance as edges appear)\n\n",
              subgraph.vertices.size());

  std::printf("polarization factor beta(G) = %u\n",
              mbc::PolarizationFactorStar(graph).beta);
  return 0;
}
