// Copyright 2026 The balanced-clique Authors.
//
// Behaviour pins for the MBC* engine. Every row below was recorded from
// the solver and must stay byte-identical: the canonical witness hash and
// the search counters (networks built, MDC instances, branches, SR1/SR2,
// heuristic size) of MaxBalancedCliqueStar, and the witness hash plus the
// 1-thread schedule counters of ParallelMaxBalancedCliqueStar. A refactor
// of the shared outer loop that changes any pruning decision, visit order
// or incumbent update moves at least one of these numbers.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/mdc_solver.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

/// FNV-1a over the canonical witness: size first, then every vertex id in
/// canonical (left then right, each ascending) order.
uint64_t WitnessHash(const BalancedClique& clique) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](uint64_t value) {
    hash = (hash ^ value) * 0x100000001b3ull;
  };
  mix(clique.size());
  for (VertexId v : clique.left) mix(v);
  for (VertexId v : clique.right) mix(v);
  return hash;
}

struct NamedGraph {
  const char* name;
  SignedGraph graph;
};

std::vector<NamedGraph> PinGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"random1", RandomSignedGraph(150, 1500, 0.4, 1)});
  graphs.push_back({"random2", RandomSignedGraph(200, 2400, 0.3, 2)});
  graphs.push_back({"dense", RandomSignedGraph(90, 1800, 0.25, 4)});
  graphs.push_back(
      {"planted", PlantBalancedCliques(RandomSignedGraph(400, 3000, 0.45, 5),
                                       {{5, 5}, {4, 6}}, 14)});
  CommunityGraphOptions community;
  community.num_vertices = 300;
  community.num_edges = 5000;
  community.num_communities = 6;
  community.intra_community_bias = 0.8;
  community.negative_ratio = 0.3;
  community.powerlaw_alpha = 0.5;
  community.seed = 3;
  graphs.push_back({"community", GenerateCommunitySignedGraph(community)});
  return graphs;
}

/// One line per run: every pinned field, doubles at round-trip precision
/// so the comparison is bit-exact.
std::string DescribeStar(const std::string& name, const MbcStarResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s hash=%016llx size=%zu built=%llu mdc=%llu branches=%llu "
                "sr1=%.17g sr2=%.17g heu=%zu",
                name.c_str(),
                static_cast<unsigned long long>(WitnessHash(r.clique)),
                r.clique.size(),
                static_cast<unsigned long long>(r.stats.num_networks_built),
                static_cast<unsigned long long>(r.stats.num_mdc_instances),
                static_cast<unsigned long long>(r.stats.mdc_branches),
                r.stats.avg_sr1, r.stats.avg_sr2, r.stats.heuristic_size);
  return buf;
}

std::string DescribeParallel(const std::string& name, uint32_t threads,
                             const ParallelMbcResult& r) {
  char buf[256];
  if (threads == 1) {
    std::snprintf(buf, sizeof(buf),
                  "%s t=1 hash=%016llx size=%zu built=%llu splits=%llu",
                  name.c_str(),
                  static_cast<unsigned long long>(WitnessHash(r.clique)),
                  r.clique.size(),
                  static_cast<unsigned long long>(r.num_networks_built),
                  static_cast<unsigned long long>(r.num_splits));
  } else {
    std::snprintf(buf, sizeof(buf), "%s t=%u hash=%016llx size=%zu",
                  name.c_str(), threads,
                  static_cast<unsigned long long>(WitnessHash(r.clique)),
                  r.clique.size());
  }
  return buf;
}

void ExpectPinned(const std::vector<std::string>& got,
                  const std::vector<std::string>& want) {
  if (got.size() != want.size()) {
    std::string table;
    for (const std::string& row : got) table += "      \"" + row + "\",\n";
    FAIL() << "pin table has " << want.size() << " rows, the run has "
           << got.size() << ":\n"
           << table;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
}

// MBC* with default options on every pin graph at tau 0..4.
TEST(MbcEnginePinTest, StarDefaultOptions) {
  const std::vector<std::string> want = {
      "random1 tau=0 hash=eced9b9138bc2ee2 size=6 built=129 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=1 hash=eced9b9138bc2ee2 size=6 built=129 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=2 hash=eced9b9138bc2ee2 size=6 built=128 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=3 hash=af63bd4c8601b7df size=0 built=124 mdc=16 "
      "branches=49 sr1=0.12994200437274439 sr2=0.51655362534454097 heu=0",
      "random1 tau=4 hash=af63bd4c8601b7df size=0 built=107 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=0",
      "random2 tau=0 hash=0524c334d5436472 size=6 built=170 mdc=1 "
      "branches=1 sr1=0.32258064516129037 sr2=0.67741935483870974 heu=5",
      "random2 tau=1 hash=0524c334d5436472 size=6 built=169 mdc=1 "
      "branches=1 sr1=0.32258064516129037 sr2=0.67741935483870974 heu=5",
      "random2 tau=2 hash=43040303e8e6a2cd size=5 built=165 mdc=4 "
      "branches=4 sr1=0.16288200339558576 sr2=0.6073247635217075 heu=5",
      "random2 tau=3 hash=af63bd4c8601b7df size=0 built=157 mdc=4 "
      "branches=4 sr1=0.22124482415319752 sr2=0.62766868798097342 heu=0",
      "random2 tau=4 hash=af63bd4c8601b7df size=0 built=140 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=0",
      "dense tau=0 hash=8c7f6f593dcce4da size=12 built=75 mdc=6 "
      "branches=56 sr1=0.28351511824581233 sr2=0.54069385731670816 heu=6",
      "dense tau=1 hash=3d0b4eeca2ac449d size=9 built=75 mdc=42 "
      "branches=145 sr1=0.32075981829959987 sr2=0.48774411354259373 heu=6",
      "dense tau=2 hash=b8a1443e073227fb size=8 built=75 mdc=51 "
      "branches=639 sr1=0.32823672833800244 sr2=0.44147654103667311 heu=6",
      "dense tau=3 hash=d19f005d7c4ac99e size=6 built=76 mdc=62 "
      "branches=995 sr1=0.33262763114432625 sr2=0.3979760093863986 heu=0",
      "dense tau=4 hash=af63bd4c8601b7df size=0 built=72 mdc=50 "
      "branches=400 sr1=0.32191612457478314 sr2=0.45989222407344843 heu=0",
      "planted tau=0 hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=3 hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=4 hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "community tau=0 hash=f8e818994649376f size=9 built=258 mdc=5 "
      "branches=38 sr1=0.24777872099603854 sr2=0.34520939445387666 heu=5",
      "community tau=1 hash=8890a474a477c3b1 size=8 built=256 mdc=22 "
      "branches=29 sr1=0.21811307443522299 sr2=0.35181497852483185 heu=5",
      "community tau=2 hash=a1daf9bc5db165fe size=6 built=260 mdc=149 "
      "branches=293 sr1=0.24186729317116681 sr2=0.37425955668904115 heu=5",
      "community tau=3 hash=af63bd4c8601b7df size=0 built=254 mdc=212 "
      "branches=265 sr1=0.2643429436798227 sr2=0.38982251294465892 heu=0",
      "community tau=4 hash=af63bd4c8601b7df size=0 built=234 mdc=56 "
      "branches=56 sr1=0.22551285363433807 sr2=0.38759585381720463 heu=0",
  };
  std::vector<std::string> got;
  for (const NamedGraph& g : PinGraphs()) {
    for (uint32_t tau = 0; tau <= 4; ++tau) {
      const MbcStarResult r = MaxBalancedCliqueStar(g.graph, tau);
      if (!r.clique.empty()) {
        EXPECT_TRUE(IsBalancedClique(g.graph, r.clique));
        EXPECT_TRUE(r.clique.SatisfiesThreshold(tau));
      }
      got.push_back(DescribeStar(
          std::string(g.name) + " tau=" + std::to_string(tau), r));
    }
  }
  ExpectPinned(got, want);
}

// Every option that changes the engine's path: existence-only, each
// ablation switch off, a warm-start clique, edge reduction, and a
// caller-owned solver reused across runs.
TEST(MbcEnginePinTest, StarOptionCases) {
  const std::vector<std::string> want = {
      "random1 tau=1 existence_only hash=eced9b9138bc2ee2 size=6 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=1 no_core hash=eced9b9138bc2ee2 size=6 built=129 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=1 no_color hash=eced9b9138bc2ee2 size=6 built=129 "
      "mdc=1 branches=3 sr1=0.03125 sr2=0.40625 heu=6",
      "random1 tau=1 no_heu hash=eced9b9138bc2ee2 size=6 built=140 mdc=8 "
      "branches=18 sr1=0.20587406015037596 sr2=0.45291353383458643 heu=0",
      "random1 tau=1 edge_reduction hash=eced9b9138bc2ee2 size=6 "
      "built=129 mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=1 shared_solver hash=eced9b9138bc2ee2 size=6 built=129 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=1 initial_clique hash=eced9b9138bc2ee2 size=6 "
      "built=129 mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=1 initial_clique_no_heu hash=eced9b9138bc2ee2 size=6 "
      "built=130 mdc=1 branches=6 sr1=0.03125 sr2=0.1875 heu=0",
      "random1 tau=2 existence_only hash=eced9b9138bc2ee2 size=6 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=2 no_core hash=eced9b9138bc2ee2 size=6 built=128 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=2 no_color hash=eced9b9138bc2ee2 size=6 built=128 "
      "mdc=1 branches=3 sr1=0.03125 sr2=0.40625 heu=6",
      "random1 tau=2 no_heu hash=eced9b9138bc2ee2 size=6 built=133 mdc=4 "
      "branches=20 sr1=0.10662828947368422 sr2=0.3501644736842105 heu=0",
      "random1 tau=2 edge_reduction hash=eced9b9138bc2ee2 size=6 built=43 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=2 shared_solver hash=eced9b9138bc2ee2 size=6 built=128 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=2 initial_clique hash=eced9b9138bc2ee2 size=6 "
      "built=128 mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "random1 tau=2 initial_clique_no_heu hash=eced9b9138bc2ee2 size=6 "
      "built=129 mdc=1 branches=6 sr1=0.03125 sr2=0.1875 heu=0",
      "random2 tau=1 existence_only hash=43040303e8e6a2cd size=5 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=5",
      "random2 tau=1 no_core hash=0524c334d5436472 size=6 built=169 mdc=3 "
      "branches=20 sr1=0.2563364055299539 sr2=0.2563364055299539 heu=5",
      "random2 tau=1 no_color hash=0524c334d5436472 size=6 built=169 "
      "mdc=3 branches=3 sr1=0.28147646155236289 sr2=0.62160477094063438 "
      "heu=5",
      "random2 tau=1 no_heu hash=0524c334d5436472 size=6 built=186 mdc=21 "
      "branches=29 sr1=0.26643305422981584 sr2=0.50814115414546135 heu=0",
      "random2 tau=1 edge_reduction hash=0524c334d5436472 size=6 "
      "built=169 mdc=1 branches=1 sr1=0.32258064516129037 "
      "sr2=0.67741935483870974 heu=5",
      "random2 tau=1 shared_solver hash=0524c334d5436472 size=6 built=169 "
      "mdc=1 branches=1 sr1=0.32258064516129037 sr2=0.67741935483870974 "
      "heu=5",
      "random2 tau=1 initial_clique hash=0524c334d5436472 size=6 "
      "built=169 mdc=1 branches=1 sr1=0.32258064516129037 "
      "sr2=0.67741935483870974 heu=5",
      "random2 tau=1 initial_clique_no_heu hash=0524c334d5436472 size=6 "
      "built=169 mdc=1 branches=1 sr1=0.32258064516129037 "
      "sr2=0.67741935483870974 heu=0",
      "random2 tau=2 existence_only hash=43040303e8e6a2cd size=5 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=5",
      "random2 tau=2 no_core hash=43040303e8e6a2cd size=5 built=165 mdc=8 "
      "branches=91 sr1=0.17957366692604637 sr2=0.17957366692604637 heu=5",
      "random2 tau=2 no_color hash=43040303e8e6a2cd size=5 built=165 "
      "mdc=16 branches=22 sr1=0.16681524320753766 sr2=0.54461617004060781 "
      "heu=5",
      "random2 tau=2 no_heu hash=9e6222038ba2eb80 size=5 built=172 mdc=16 "
      "branches=38 sr1=0.26410479964407135 sr2=0.57842154663584178 heu=0",
      "random2 tau=2 edge_reduction hash=b2d60753db986334 size=5 built=19 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=5",
      "random2 tau=2 shared_solver hash=43040303e8e6a2cd size=5 built=165 "
      "mdc=4 branches=4 sr1=0.16288200339558576 sr2=0.6073247635217075 "
      "heu=5",
      "random2 tau=2 initial_clique hash=43040303e8e6a2cd size=5 "
      "built=165 mdc=4 branches=4 sr1=0.16288200339558576 "
      "sr2=0.6073247635217075 heu=5",
      "random2 tau=2 initial_clique_no_heu hash=9e6222038ba2eb80 size=5 "
      "built=168 mdc=11 branches=22 sr1=0.2776133608857943 "
      "sr2=0.62751799659524865 heu=0",
      "dense tau=1 existence_only hash=9a17360e86c789ea size=6 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "dense tau=1 no_core hash=3d0b4eeca2ac449d size=9 built=75 mdc=42 "
      "branches=319 sr1=0.32401265616638075 sr2=0.32401265616638075 heu=6",
      "dense tau=1 no_color hash=3d0b4eeca2ac449d size=9 built=75 mdc=54 "
      "branches=174 sr1=0.3275556623609524 sr2=0.52567990112226137 heu=6",
      "dense tau=1 no_heu hash=3d0b4eeca2ac449d size=9 built=84 mdc=63 "
      "branches=194 sr1=0.29631528520759426 sr2=0.43220278846295118 heu=0",
      "dense tau=1 edge_reduction hash=3d0b4eeca2ac449d size=9 built=75 "
      "mdc=42 branches=145 sr1=0.32075981829959987 "
      "sr2=0.48774411354259373 heu=6",
      "dense tau=1 shared_solver hash=3d0b4eeca2ac449d size=9 built=75 "
      "mdc=42 branches=145 sr1=0.32075981829959987 "
      "sr2=0.48774411354259373 heu=6",
      "dense tau=1 initial_clique hash=3d0b4eeca2ac449d size=9 built=71 "
      "mdc=35 branches=109 sr1=0.30794062630876379 "
      "sr2=0.49528658700704964 heu=6",
      "dense tau=1 initial_clique_no_heu hash=3d0b4eeca2ac449d size=9 "
      "built=71 mdc=35 branches=109 sr1=0.30794062630876379 "
      "sr2=0.49528658700704964 heu=0",
      "dense tau=2 existence_only hash=9a17360e86c789ea size=6 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=6",
      "dense tau=2 no_core hash=b8a1443e073227fb size=8 built=75 mdc=52 "
      "branches=1107 sr1=0.32699205112983915 sr2=0.32699205112983915 "
      "heu=6",
      "dense tau=2 no_color hash=b8a1443e073227fb size=8 built=75 mdc=55 "
      "branches=643 sr1=0.32639125965463528 sr2=0.45383304007365483 heu=6",
      "dense tau=2 no_heu hash=b8a1443e073227fb size=8 built=81 mdc=68 "
      "branches=767 sr1=0.31087806558126141 sr2=0.4085878182356148 heu=0",
      "dense tau=2 edge_reduction hash=b8a1443e073227fb size=8 built=70 "
      "mdc=5 branches=30 sr1=0.29863082445612565 sr2=0.48184717247367848 "
      "heu=6",
      "dense tau=2 shared_solver hash=b8a1443e073227fb size=8 built=75 "
      "mdc=51 branches=639 sr1=0.32823672833800244 "
      "sr2=0.44147654103667311 heu=6",
      "dense tau=2 initial_clique hash=b8a1443e073227fb size=8 built=72 "
      "mdc=47 branches=505 sr1=0.32129386636505303 "
      "sr2=0.45861263688631004 heu=6",
      "dense tau=2 initial_clique_no_heu hash=b8a1443e073227fb size=8 "
      "built=72 mdc=47 branches=505 sr1=0.32129386636505303 "
      "sr2=0.45861263688631004 heu=0",
      "planted tau=1 existence_only hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 no_core hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 no_color hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 no_heu hash=d97b7b32ed963110 size=10 built=12 mdc=9 "
      "branches=9 sr1=0.010560344827586207 sr2=0.064406498673740042 heu=0",
      "planted tau=1 edge_reduction hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 shared_solver hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 initial_clique hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=1 initial_clique_no_heu hash=d97b7b32ed963110 size=10 "
      "built=4 mdc=1 branches=1 sr1=0 sr2=0 heu=0",
      "planted tau=2 existence_only hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 no_core hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 no_color hash=d97b7b32ed963110 size=10 built=0 mdc=0 "
      "branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 no_heu hash=cd8b4f57147f6e0a size=10 built=17 mdc=9 "
      "branches=14 sr1=0.033625730994152052 sr2=0.1854723887391764 heu=0",
      "planted tau=2 edge_reduction hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 shared_solver hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 initial_clique hash=d97b7b32ed963110 size=10 built=0 "
      "mdc=0 branches=0 sr1=-1 sr2=-1 heu=10",
      "planted tau=2 initial_clique_no_heu hash=d97b7b32ed963110 size=10 "
      "built=10 mdc=1 branches=1 sr1=0 sr2=0 heu=0",
      "community tau=1 existence_only hash=7a524857423efd4f size=5 "
      "built=0 mdc=0 branches=0 sr1=-1 sr2=-1 heu=5",
      "community tau=1 no_core hash=8890a474a477c3b1 size=8 built=256 "
      "mdc=21 branches=123 sr1=0.22390459092879667 "
      "sr2=0.22390459092879667 heu=5",
      "community tau=1 no_color hash=8890a474a477c3b1 size=8 built=256 "
      "mdc=76 branches=92 sr1=0.22802353617112189 sr2=0.40646470208420887 "
      "heu=5",
      "community tau=1 no_heu hash=8890a474a477c3b1 size=8 built=276 "
      "mdc=47 branches=72 sr1=0.21084262692850433 sr2=0.31578504949720793 "
      "heu=0",
      "community tau=1 edge_reduction hash=8890a474a477c3b1 size=8 "
      "built=256 mdc=22 branches=29 sr1=0.21811307443522299 "
      "sr2=0.35181497852483185 heu=5",
      "community tau=1 shared_solver hash=8890a474a477c3b1 size=8 "
      "built=256 mdc=22 branches=29 sr1=0.21811307443522299 "
      "sr2=0.35181497852483185 heu=5",
      "community tau=1 initial_clique hash=8890a474a477c3b1 size=8 "
      "built=248 mdc=15 branches=17 sr1=0.19134448561141124 "
      "sr2=0.32220308178131324 heu=5",
      "community tau=1 initial_clique_no_heu hash=8890a474a477c3b1 size=8 "
      "built=248 mdc=15 branches=17 sr1=0.19134448561141124 "
      "sr2=0.32220308178131324 heu=0",
      "community tau=2 existence_only hash=7a524857423efd4f size=5 "
      "built=0 mdc=0 branches=0 sr1=-1 sr2=-1 heu=5",
      "community tau=2 no_core hash=a1daf9bc5db165fe size=6 built=260 "
      "mdc=153 branches=2330 sr1=0.2451749779732123 "
      "sr2=0.2451749779732123 heu=5",
      "community tau=2 no_color hash=a1daf9bc5db165fe size=6 built=260 "
      "mdc=188 branches=340 sr1=0.25509047383879224 "
      "sr2=0.41316988698340101 heu=5",
      "community tau=2 no_heu hash=a1daf9bc5db165fe size=6 built=267 "
      "mdc=174 branches=501 sr1=0.2529862301650766 "
      "sr2=0.38796691821992246 heu=0",
      "community tau=2 edge_reduction hash=34c04101158c0b90 size=6 "
      "built=30 mdc=1 branches=1 sr1=0.19999999999999996 "
      "sr2=0.33333333333333337 heu=5",
      "community tau=2 shared_solver hash=a1daf9bc5db165fe size=6 "
      "built=260 mdc=149 branches=293 sr1=0.24186729317116681 "
      "sr2=0.37425955668904115 heu=5",
      "community tau=2 initial_clique hash=a1daf9bc5db165fe size=6 "
      "built=260 mdc=149 branches=293 sr1=0.24186729317116681 "
      "sr2=0.37425955668904115 heu=5",
      "community tau=2 initial_clique_no_heu hash=a1daf9bc5db165fe size=6 "
      "built=260 mdc=149 branches=293 sr1=0.24186729317116681 "
      "sr2=0.37425955668904115 heu=0",
  };
  std::vector<std::string> got;
  MdcSolver shared;
  for (const NamedGraph& g : PinGraphs()) {
    for (uint32_t tau : {1u, 2u}) {
      const std::string at = std::string(g.name) + " tau=" +
                             std::to_string(tau);
      auto run = [&](const char* label, const MbcStarOptions& options) {
        got.push_back(DescribeStar(at + " " + label,
                                   MaxBalancedCliqueStar(g.graph, tau,
                                                         options)));
      };
      MbcStarOptions options;
      options.existence_only = true;
      run("existence_only", options);
      options = {};
      options.use_core_pruning = false;
      run("no_core", options);
      options = {};
      options.use_coloring_bound = false;
      run("no_color", options);
      options = {};
      options.run_heuristic = false;
      run("no_heu", options);
      options = {};
      options.apply_edge_reduction = true;
      run("edge_reduction", options);
      options = {};
      options.shared_solver = &shared;
      run("shared_solver", options);

      // Warm start from the optimum minus one vertex of its larger side,
      // still feasible under tau; with and without the heuristic.
      BalancedClique warm = MaxBalancedCliqueStar(g.graph, tau).clique;
      auto& larger =
          warm.left.size() >= warm.right.size() ? warm.left : warm.right;
      if (!larger.empty()) larger.pop_back();
      if (warm.empty() || !warm.SatisfiesThreshold(tau)) continue;
      options = {};
      options.initial_clique = &warm;
      run("initial_clique", options);
      options.run_heuristic = false;
      run("initial_clique_no_heu", options);
    }
  }
  ExpectPinned(got, want);
}

// The tie-preserving entry: the lex-min witness at 1/2/4 threads, plus the
// 1-thread schedule counters, with the default and a forced split
// threshold.
TEST(MbcEnginePinTest, ParallelEntry) {
  const std::vector<std::string> want = {
      "random1 tau=1 split=0 t=1 hash=013e15b406f29bf5 size=6 built=130 "
      "splits=0",
      "random1 tau=1 split=0 t=2 hash=013e15b406f29bf5 size=6",
      "random1 tau=1 split=0 t=4 hash=013e15b406f29bf5 size=6",
      "random1 tau=1 split=4 t=1 hash=013e15b406f29bf5 size=6 built=130 "
      "splits=13",
      "random1 tau=1 split=4 t=2 hash=013e15b406f29bf5 size=6",
      "random1 tau=1 split=4 t=4 hash=013e15b406f29bf5 size=6",
      "random1 tau=3 split=0 t=1 hash=af63bd4c8601b7df size=0 built=125 "
      "splits=0",
      "random1 tau=3 split=0 t=2 hash=af63bd4c8601b7df size=0",
      "random1 tau=3 split=0 t=4 hash=af63bd4c8601b7df size=0",
      "random1 tau=3 split=4 t=1 hash=af63bd4c8601b7df size=0 built=125 "
      "splits=58",
      "random1 tau=3 split=4 t=2 hash=af63bd4c8601b7df size=0",
      "random1 tau=3 split=4 t=4 hash=af63bd4c8601b7df size=0",
      "random1 tau=2 no_heu t=1 hash=eced9b9138bc2ee2 size=6 built=129 "
      "splits=0",
      "random1 tau=1 initial_clique t=1 hash=013e15b406f29bf5 size=6 "
      "built=130 splits=0",
      "random2 tau=1 split=0 t=1 hash=0524c334d5436472 size=6 built=169 "
      "splits=0",
      "random2 tau=1 split=0 t=2 hash=0524c334d5436472 size=6",
      "random2 tau=1 split=0 t=4 hash=0524c334d5436472 size=6",
      "random2 tau=1 split=4 t=1 hash=0524c334d5436472 size=6 built=169 "
      "splits=53",
      "random2 tau=1 split=4 t=2 hash=0524c334d5436472 size=6",
      "random2 tau=1 split=4 t=4 hash=0524c334d5436472 size=6",
      "random2 tau=3 split=0 t=1 hash=af63bd4c8601b7df size=0 built=162 "
      "splits=0",
      "random2 tau=3 split=0 t=2 hash=af63bd4c8601b7df size=0",
      "random2 tau=3 split=0 t=4 hash=af63bd4c8601b7df size=0",
      "random2 tau=3 split=4 t=1 hash=af63bd4c8601b7df size=0 built=162 "
      "splits=66",
      "random2 tau=3 split=4 t=2 hash=af63bd4c8601b7df size=0",
      "random2 tau=3 split=4 t=4 hash=af63bd4c8601b7df size=0",
      "random2 tau=2 no_heu t=1 hash=43040303e8e6a2cd size=5 built=168 "
      "splits=0",
      "random2 tau=1 initial_clique t=1 hash=0524c334d5436472 size=6 "
      "built=169 splits=0",
      "dense tau=1 split=0 t=1 hash=3d0b4eeca2ac449d size=9 built=71 "
      "splits=0",
      "dense tau=1 split=0 t=2 hash=3d0b4eeca2ac449d size=9",
      "dense tau=1 split=0 t=4 hash=3d0b4eeca2ac449d size=9",
      "dense tau=1 split=4 t=1 hash=3d0b4eeca2ac449d size=9 built=71 "
      "splits=37",
      "dense tau=1 split=4 t=2 hash=3d0b4eeca2ac449d size=9",
      "dense tau=1 split=4 t=4 hash=3d0b4eeca2ac449d size=9",
      "dense tau=3 split=0 t=1 hash=e66bcbb3f7852750 size=6 built=76 "
      "splits=0",
      "dense tau=3 split=0 t=2 hash=e66bcbb3f7852750 size=6",
      "dense tau=3 split=0 t=4 hash=e66bcbb3f7852750 size=6",
      "dense tau=3 split=4 t=1 hash=e66bcbb3f7852750 size=6 built=76 "
      "splits=62",
      "dense tau=3 split=4 t=2 hash=e66bcbb3f7852750 size=6",
      "dense tau=3 split=4 t=4 hash=e66bcbb3f7852750 size=6",
      "dense tau=2 no_heu t=1 hash=b8a1443e073227fb size=8 built=72 "
      "splits=0",
      "dense tau=1 initial_clique t=1 hash=3d0b4eeca2ac449d size=9 "
      "built=71 splits=0",
      "planted tau=1 split=0 t=1 hash=cd8b4f57147f6e0a size=10 built=218 "
      "splits=0",
      "planted tau=1 split=0 t=2 hash=cd8b4f57147f6e0a size=10",
      "planted tau=1 split=0 t=4 hash=cd8b4f57147f6e0a size=10",
      "planted tau=1 split=4 t=1 hash=cd8b4f57147f6e0a size=10 built=218 "
      "splits=2",
      "planted tau=1 split=4 t=2 hash=cd8b4f57147f6e0a size=10",
      "planted tau=1 split=4 t=4 hash=cd8b4f57147f6e0a size=10",
      "planted tau=3 split=0 t=1 hash=cd8b4f57147f6e0a size=10 built=208 "
      "splits=0",
      "planted tau=3 split=0 t=2 hash=cd8b4f57147f6e0a size=10",
      "planted tau=3 split=0 t=4 hash=cd8b4f57147f6e0a size=10",
      "planted tau=3 split=4 t=1 hash=cd8b4f57147f6e0a size=10 built=208 "
      "splits=2",
      "planted tau=3 split=4 t=2 hash=cd8b4f57147f6e0a size=10",
      "planted tau=3 split=4 t=4 hash=cd8b4f57147f6e0a size=10",
      "planted tau=2 no_heu t=1 hash=cd8b4f57147f6e0a size=10 built=325 "
      "splits=0",
      "planted tau=1 initial_clique t=1 hash=cd8b4f57147f6e0a size=10 "
      "built=218 splits=0",
      "community tau=1 split=0 t=1 hash=1b31489a5c81c03e size=8 built=248 "
      "splits=0",
      "community tau=1 split=0 t=2 hash=1b31489a5c81c03e size=8",
      "community tau=1 split=0 t=4 hash=1b31489a5c81c03e size=8",
      "community tau=1 split=4 t=1 hash=1b31489a5c81c03e size=8 built=248 "
      "splits=159",
      "community tau=1 split=4 t=2 hash=1b31489a5c81c03e size=8",
      "community tau=1 split=4 t=4 hash=1b31489a5c81c03e size=8",
      "community tau=3 split=0 t=1 hash=af63bd4c8601b7df size=0 built=257 "
      "splits=0",
      "community tau=3 split=0 t=2 hash=af63bd4c8601b7df size=0",
      "community tau=3 split=0 t=4 hash=af63bd4c8601b7df size=0",
      "community tau=3 split=4 t=1 hash=af63bd4c8601b7df size=0 built=257 "
      "splits=236",
      "community tau=3 split=4 t=2 hash=af63bd4c8601b7df size=0",
      "community tau=3 split=4 t=4 hash=af63bd4c8601b7df size=0",
      "community tau=2 no_heu t=1 hash=a1daf9bc5db165fe size=6 built=260 "
      "splits=0",
      "community tau=1 initial_clique t=1 hash=1b31489a5c81c03e size=8 "
      "built=248 splits=0",
  };
  std::vector<std::string> got;
  for (const NamedGraph& g : PinGraphs()) {
    for (uint32_t tau : {1u, 3u}) {
      for (uint32_t split : {0u, 4u}) {
        const std::string at = std::string(g.name) + " tau=" +
                               std::to_string(tau) +
                               " split=" + std::to_string(split);
        for (uint32_t threads : {1u, 2u, 4u}) {
          ParallelMbcOptions options;
          options.num_threads = threads;
          options.split_threshold = split;
          got.push_back(DescribeParallel(
              at, threads,
              ParallelMaxBalancedCliqueStar(g.graph, tau, options)));
        }
      }
    }
    // Seeding: no heuristic, and a warm start offered ahead of it.
    ParallelMbcOptions options;
    options.num_threads = 1;
    options.run_heuristic = false;
    got.push_back(DescribeParallel(
        std::string(g.name) + " tau=2 no_heu", 1,
        ParallelMaxBalancedCliqueStar(g.graph, 2, options)));
    BalancedClique warm = MaxBalancedCliqueStar(g.graph, 1).clique;
    if (warm.empty()) continue;
    options.run_heuristic = true;
    options.initial_clique = &warm;
    got.push_back(DescribeParallel(
        std::string(g.name) + " tau=1 initial_clique", 1,
        ParallelMaxBalancedCliqueStar(g.graph, 1, options)));
  }
  ExpectPinned(got, want);
}

}  // namespace
}  // namespace mbc
