// Copyright 2026 The balanced-clique Authors.
//
// Behaviour pins for the MBC-Heu greedy and the answers built on it. Every
// row below was recorded from the library and must stay byte-identical:
// the canonical witness hash of MbcHeuristic (raw graphs and a BSCL graph
// after vertex reduction, the shape MBC* seeds from), the witness hash and
// counters of MbcHeuristicSearch under default, greedy-only and reseeded
// options, and the brownout tier's ComputeDegradedResult for kMbc, kPf and
// kGmbc. A change to the anchor pool, the greedy's tie-breaks or the
// per-tau filtering moves at least one of these numbers.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/mbc_heu.h"
#include "src/core/reductions.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/service/degraded.h"
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

SignedGraph CommunityGraph(VertexId n, EdgeCount m, uint32_t communities,
                           double negative_ratio, uint64_t seed) {
  CommunityGraphOptions options;
  options.num_vertices = n;
  options.num_edges = m;
  options.num_communities = communities;
  options.negative_ratio = negative_ratio;
  options.seed = seed;
  return GenerateCommunitySignedGraph(options);
}

std::vector<NamedGraph> PinGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"random1", RandomSignedGraph(150, 1500, 0.4, 1)});
  graphs.push_back({"random2", RandomSignedGraph(200, 2400, 0.3, 2)});
  graphs.push_back({"dense", RandomSignedGraph(90, 1800, 0.25, 4)});
  graphs.push_back(
      {"planted", PlantBalancedCliques(RandomSignedGraph(400, 3000, 0.45, 5),
                                       {{5, 5}, {4, 6}}, 14)});
  graphs.push_back({"community", CommunityGraph(300, 5000, 6, 0.3, 3)});
  graphs.push_back({"community2", CommunityGraph(1000, 20000, 4, 0.35, 11)});
  BsclOptions bscl;
  bscl.num_vertices = 20000;
  bscl.num_edges = 100000;
  bscl.seed = 7;
  graphs.push_back({"bscl", GenerateBsclSignedGraph(bscl)});
  return graphs;
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

std::string Row(const std::string& label, const BalancedClique& clique) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s hash=%016llx size=%zu|%zu",
                label.c_str(),
                static_cast<unsigned long long>(WitnessHash(clique)),
                clique.left.size(), clique.right.size());
  return buf;
}

// MbcHeuristic at tau 0..4 on every pin graph; the BSCL graph runs after
// ApplyVertexReduction at the same tau, as MBC* seeds from it.
TEST(HeuPinTest, MbcHeuristicWitnesses) {
  const std::vector<std::string> want = {
      "random1 tau=0 hash=eced9b9138bc2ee2 size=2|4",
      "random1 tau=1 hash=eced9b9138bc2ee2 size=2|4",
      "random1 tau=2 hash=eced9b9138bc2ee2 size=2|4",
      "random1 tau=3 hash=af63bd4c8601b7df size=0|0",
      "random1 tau=4 hash=af63bd4c8601b7df size=0|0",
      "random2 tau=0 hash=43040303e8e6a2cd size=2|3",
      "random2 tau=1 hash=43040303e8e6a2cd size=2|3",
      "random2 tau=2 hash=43040303e8e6a2cd size=2|3",
      "random2 tau=3 hash=af63bd4c8601b7df size=0|0",
      "random2 tau=4 hash=af63bd4c8601b7df size=0|0",
      "dense tau=0 hash=9a17360e86c789ea size=2|4",
      "dense tau=1 hash=9a17360e86c789ea size=2|4",
      "dense tau=2 hash=9a17360e86c789ea size=2|4",
      "dense tau=3 hash=af63bd4c8601b7df size=0|0",
      "dense tau=4 hash=af63bd4c8601b7df size=0|0",
      "planted tau=0 hash=d97b7b32ed963110 size=5|5",
      "planted tau=1 hash=d97b7b32ed963110 size=5|5",
      "planted tau=2 hash=d97b7b32ed963110 size=5|5",
      "planted tau=3 hash=d97b7b32ed963110 size=5|5",
      "planted tau=4 hash=d97b7b32ed963110 size=5|5",
      "community tau=0 hash=f494243cfb29304a size=2|4",
      "community tau=1 hash=f494243cfb29304a size=2|4",
      "community tau=2 hash=f494243cfb29304a size=2|4",
      "community tau=3 hash=af63bd4c8601b7df size=0|0",
      "community tau=4 hash=af63bd4c8601b7df size=0|0",
      "community2 tau=0 hash=b13cd0db7c24464c size=3|3",
      "community2 tau=1 hash=b13cd0db7c24464c size=3|3",
      "community2 tau=2 hash=b13cd0db7c24464c size=3|3",
      "community2 tau=3 hash=b13cd0db7c24464c size=3|3",
      "community2 tau=4 hash=af63bd4c8601b7df size=0|0",
      "bscl/reduced tau=0 hash=09c3c52f61f94a30 size=1|3",
      "bscl/reduced tau=1 hash=09c3eb2f61f98ac2 size=1|3",
      "bscl/reduced tau=2 hash=7b0f6f0499b438a9 size=2|3",
      "bscl/reduced tau=3 hash=af63bd4c8601b7df size=0|0",
      "bscl/reduced tau=4 hash=af63bd4c8601b7df size=0|0",
  };
  std::vector<std::string> got;
  for (const NamedGraph& g : PinGraphs()) {
    const bool reduce = std::string(g.name) == "bscl";
    for (uint32_t tau = 0; tau <= 4; ++tau) {
      SignedGraph reduced_graph;
      const SignedGraph* graph = &g.graph;
      if (reduce) {
        reduced_graph = ApplyVertexReduction(g.graph, tau).graph;
        graph = &reduced_graph;
      }
      const BalancedClique clique = MbcHeuristic(*graph, tau);
      if (!clique.empty()) {
        EXPECT_TRUE(IsBalancedClique(*graph, clique));
        EXPECT_TRUE(clique.SatisfiesThreshold(tau));
      }
      got.push_back(Row(std::string(g.name) + (reduce ? "/reduced" : "") +
                            " tau=" + std::to_string(tau),
                        clique));
    }
  }
  ExpectPinned(got, want);
}

// MbcHeuristicSearch under default options, greedy-only (no local
// search), and seeds 0 and 7, at tau 0..3.
TEST(HeuPinTest, MbcHeuristicSearchWitnessesAndCounters) {
  struct Variant {
    const char* name;
    uint32_t iterations;
    uint64_t seed;
  };
  const MbcHeuOptions defaults;
  const Variant variants[] = {
      {"default", defaults.local_search_iterations, defaults.seed},
      {"greedy", 0, 0},
      {"seed0", 64, 0},
      {"seed7", 64, 7},
  };
  const std::vector<std::string> want = {
      "random1 default tau=0 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=120 "
      "improved=2",
      "random1 default tau=1 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=120 "
      "improved=1",
      "random1 default tau=2 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=120 "
      "improved=0",
      "random1 default tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=120 "
      "improved=0",
      "random1 greedy tau=0 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=0 "
      "improved=0",
      "random1 greedy tau=1 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=0 "
      "improved=0",
      "random1 greedy tau=2 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=0 "
      "improved=0",
      "random1 greedy tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=0 "
      "improved=0",
      "random1 seed0 tau=0 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=320 "
      "improved=2",
      "random1 seed0 tau=1 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=320 "
      "improved=1",
      "random1 seed0 tau=2 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=320 "
      "improved=0",
      "random1 seed0 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=320 "
      "improved=0",
      "random1 seed7 tau=0 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=320 "
      "improved=2",
      "random1 seed7 tau=1 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=320 "
      "improved=1",
      "random1 seed7 tau=2 hash=eced9b9138bc2ee2 size=2|4 greedy=6 ls=320 "
      "improved=0",
      "random1 seed7 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=320 "
      "improved=0",
      "random2 default tau=0 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=120 "
      "improved=2",
      "random2 default tau=1 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=120 "
      "improved=1",
      "random2 default tau=2 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=120 "
      "improved=1",
      "random2 default tau=3 hash=af63bd4c8601b7df size=0|0 greedy=5 ls=120 "
      "improved=0",
      "random2 greedy tau=0 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=0 "
      "improved=0",
      "random2 greedy tau=1 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=0 "
      "improved=0",
      "random2 greedy tau=2 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=0 "
      "improved=0",
      "random2 greedy tau=3 hash=af63bd4c8601b7df size=0|0 greedy=5 ls=0 "
      "improved=0",
      "random2 seed0 tau=0 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=320 "
      "improved=2",
      "random2 seed0 tau=1 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=320 "
      "improved=1",
      "random2 seed0 tau=2 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=320 "
      "improved=1",
      "random2 seed0 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=5 ls=320 "
      "improved=0",
      "random2 seed7 tau=0 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=320 "
      "improved=2",
      "random2 seed7 tau=1 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=320 "
      "improved=1",
      "random2 seed7 tau=2 hash=43040303e8e6a2cd size=2|3 greedy=5 ls=320 "
      "improved=1",
      "random2 seed7 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=5 ls=320 "
      "improved=0",
      "dense default tau=0 hash=3d0b4eeca2ac449d size=1|8 greedy=6 ls=120 "
      "improved=6",
      "dense default tau=1 hash=3d0b4eeca2ac449d size=1|8 greedy=6 ls=120 "
      "improved=3",
      "dense default tau=2 hash=9a17360e86c789ea size=2|4 greedy=6 ls=120 "
      "improved=0",
      "dense default tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=120 "
      "improved=0",
      "dense greedy tau=0 hash=9a17360e86c789ea size=2|4 greedy=6 ls=0 "
      "improved=0",
      "dense greedy tau=1 hash=9a17360e86c789ea size=2|4 greedy=6 ls=0 "
      "improved=0",
      "dense greedy tau=2 hash=9a17360e86c789ea size=2|4 greedy=6 ls=0 "
      "improved=0",
      "dense greedy tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=0 "
      "improved=0",
      "dense seed0 tau=0 hash=3d0b4eeca2ac449d size=1|8 greedy=6 ls=320 "
      "improved=7",
      "dense seed0 tau=1 hash=3d0b4eeca2ac449d size=1|8 greedy=6 ls=320 "
      "improved=3",
      "dense seed0 tau=2 hash=9a17360e86c789ea size=2|4 greedy=6 ls=320 "
      "improved=0",
      "dense seed0 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=320 "
      "improved=0",
      "dense seed7 tau=0 hash=3d0b4eeca2ac449d size=1|8 greedy=6 ls=320 "
      "improved=8",
      "dense seed7 tau=1 hash=3d0b4eeca2ac449d size=1|8 greedy=6 ls=320 "
      "improved=4",
      "dense seed7 tau=2 hash=9a17360e86c789ea size=2|4 greedy=6 ls=320 "
      "improved=0",
      "dense seed7 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=320 "
      "improved=0",
      "planted default tau=0 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=144 "
      "improved=0",
      "planted default tau=1 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=144 "
      "improved=0",
      "planted default tau=2 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=144 "
      "improved=0",
      "planted default tau=3 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=144 "
      "improved=0",
      "planted greedy tau=0 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=0 "
      "improved=0",
      "planted greedy tau=1 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=0 "
      "improved=0",
      "planted greedy tau=2 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=0 "
      "improved=0",
      "planted greedy tau=3 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=0 "
      "improved=0",
      "planted seed0 tau=0 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed0 tau=1 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed0 tau=2 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed0 tau=3 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed7 tau=0 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed7 tau=1 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed7 tau=2 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "planted seed7 tau=3 hash=d97b7b32ed963110 size=5|5 greedy=10 ls=384 "
      "improved=0",
      "community default tau=0 hash=a8de04b6e6382d8f size=1|7 greedy=6 ls=120 "
      "improved=4",
      "community default tau=1 hash=a8de04b6e6382d8f size=1|7 greedy=6 ls=120 "
      "improved=2",
      "community default tau=2 hash=f494243cfb29304a size=2|4 greedy=6 ls=120 "
      "improved=0",
      "community default tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=120 "
      "improved=0",
      "community greedy tau=0 hash=f494243cfb29304a size=2|4 greedy=6 ls=0 "
      "improved=0",
      "community greedy tau=1 hash=f494243cfb29304a size=2|4 greedy=6 ls=0 "
      "improved=0",
      "community greedy tau=2 hash=f494243cfb29304a size=2|4 greedy=6 ls=0 "
      "improved=0",
      "community greedy tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=0 "
      "improved=0",
      "community seed0 tau=0 hash=a8de04b6e6382d8f size=1|7 greedy=6 ls=320 "
      "improved=4",
      "community seed0 tau=1 hash=a8de04b6e6382d8f size=1|7 greedy=6 ls=320 "
      "improved=2",
      "community seed0 tau=2 hash=f494243cfb29304a size=2|4 greedy=6 ls=320 "
      "improved=0",
      "community seed0 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=320 "
      "improved=0",
      "community seed7 tau=0 hash=a8de04b6e6382d8f size=1|7 greedy=6 ls=320 "
      "improved=5",
      "community seed7 tau=1 hash=a8de04b6e6382d8f size=1|7 greedy=6 ls=320 "
      "improved=3",
      "community seed7 tau=2 hash=f494243cfb29304a size=2|4 greedy=6 ls=320 "
      "improved=0",
      "community seed7 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=6 ls=320 "
      "improved=0",
      "community2 default tau=0 hash=88e36d56208f705a size=1|9 greedy=6 "
      "ls=120 improved=5",
      "community2 default tau=1 hash=88e36d56208f705a size=1|9 greedy=6 "
      "ls=120 improved=4",
      "community2 default tau=2 hash=2a88e28b64814c5d size=2|5 greedy=6 "
      "ls=120 improved=1",
      "community2 default tau=3 hash=b13cd0db7c24464c size=3|3 greedy=6 "
      "ls=120 improved=0",
      "community2 greedy tau=0 hash=b13cd0db7c24464c size=3|3 greedy=6 ls=0 "
      "improved=0",
      "community2 greedy tau=1 hash=b13cd0db7c24464c size=3|3 greedy=6 ls=0 "
      "improved=0",
      "community2 greedy tau=2 hash=b13cd0db7c24464c size=3|3 greedy=6 ls=0 "
      "improved=0",
      "community2 greedy tau=3 hash=b13cd0db7c24464c size=3|3 greedy=6 ls=0 "
      "improved=0",
      "community2 seed0 tau=0 hash=88e36d56208f705a size=1|9 greedy=6 ls=320 "
      "improved=5",
      "community2 seed0 tau=1 hash=88e36d56208f705a size=1|9 greedy=6 ls=320 "
      "improved=4",
      "community2 seed0 tau=2 hash=2a88e28b64814c5d size=2|5 greedy=6 ls=320 "
      "improved=1",
      "community2 seed0 tau=3 hash=b13cd0db7c24464c size=3|3 greedy=6 ls=320 "
      "improved=0",
      "community2 seed7 tau=0 hash=56dd4d75b4ca2a3c size=1|8 greedy=6 ls=320 "
      "improved=8",
      "community2 seed7 tau=1 hash=56dd4d75b4ca2a3c size=1|8 greedy=6 ls=320 "
      "improved=7",
      "community2 seed7 tau=2 hash=53f9bebd8d27ec19 size=2|5 greedy=6 ls=320 "
      "improved=2",
      "community2 seed7 tau=3 hash=b13cd0db7c24464c size=3|3 greedy=6 ls=320 "
      "improved=0",
      "bscl default tau=0 hash=3f2db13610355815 size=5|0 greedy=4 ls=120 "
      "improved=4",
      "bscl default tau=1 hash=09c3c52f61f94a30 size=1|3 greedy=4 ls=120 "
      "improved=0",
      "bscl default tau=2 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=120 "
      "improved=0",
      "bscl default tau=3 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=120 "
      "improved=0",
      "bscl greedy tau=0 hash=09c3c52f61f94a30 size=1|3 greedy=4 ls=0 "
      "improved=0",
      "bscl greedy tau=1 hash=09c3c52f61f94a30 size=1|3 greedy=4 ls=0 "
      "improved=0",
      "bscl greedy tau=2 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=0 "
      "improved=0",
      "bscl greedy tau=3 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=0 "
      "improved=0",
      "bscl seed0 tau=0 hash=3f2db13610355815 size=5|0 greedy=4 ls=320 "
      "improved=5",
      "bscl seed0 tau=1 hash=09c3c52f61f94a30 size=1|3 greedy=4 ls=320 "
      "improved=0",
      "bscl seed0 tau=2 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=320 "
      "improved=0",
      "bscl seed0 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=320 "
      "improved=0",
      "bscl seed7 tau=0 hash=f6ed2f8054088595 size=6|0 greedy=4 ls=320 "
      "improved=4",
      "bscl seed7 tau=1 hash=09c3c52f61f94a30 size=1|3 greedy=4 ls=320 "
      "improved=0",
      "bscl seed7 tau=2 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=320 "
      "improved=0",
      "bscl seed7 tau=3 hash=af63bd4c8601b7df size=0|0 greedy=4 ls=320 "
      "improved=0",
  };
  std::vector<std::string> got;
  for (const NamedGraph& g : PinGraphs()) {
    for (const Variant& variant : variants) {
      for (uint32_t tau = 0; tau <= 3; ++tau) {
        MbcHeuOptions options;
        options.local_search_iterations = variant.iterations;
        options.seed = variant.seed;
        const MbcHeuResult r = MbcHeuristicSearch(g.graph, tau, options);
        if (!r.clique.empty()) {
          EXPECT_TRUE(IsBalancedClique(g.graph, r.clique));
          EXPECT_TRUE(r.clique.SatisfiesThreshold(tau));
        }
        char counters[96];
        std::snprintf(counters, sizeof(counters),
                      " greedy=%zu ls=%llu improved=%llu", r.stats.greedy_size,
                      static_cast<unsigned long long>(r.stats.ls_iterations),
                      static_cast<unsigned long long>(r.stats.ls_improvements));
        got.push_back(Row(std::string(g.name) + " " + variant.name +
                              " tau=" + std::to_string(tau),
                          r.clique) +
                      counters);
      }
    }
  }
  ExpectPinned(got, want);
}

// The brownout tier: kMbc at tau 0..3, kPf's beta, and kGmbc's beta and
// per-tau sizes.
TEST(HeuPinTest, DegradedResults) {
  const std::vector<std::string> want = {
      "random1 mbc tau=0 hash=eced9b9138bc2ee2 size=2|4",
      "random1 mbc tau=1 hash=eced9b9138bc2ee2 size=2|4",
      "random1 mbc tau=2 hash=eced9b9138bc2ee2 size=2|4",
      "random1 mbc tau=3 hash=af63bd4c8601b7df size=0|0",
      "random1 pf beta=2",
      "random1 gmbc beta=2 sizes=6,6,6",
      "random2 mbc tau=0 hash=43040303e8e6a2cd size=2|3",
      "random2 mbc tau=1 hash=43040303e8e6a2cd size=2|3",
      "random2 mbc tau=2 hash=43040303e8e6a2cd size=2|3",
      "random2 mbc tau=3 hash=af63bd4c8601b7df size=0|0",
      "random2 pf beta=2",
      "random2 gmbc beta=2 sizes=5,5,5",
      "dense mbc tau=0 hash=9a17360e86c789ea size=2|4",
      "dense mbc tau=1 hash=9a17360e86c789ea size=2|4",
      "dense mbc tau=2 hash=9a17360e86c789ea size=2|4",
      "dense mbc tau=3 hash=af63bd4c8601b7df size=0|0",
      "dense pf beta=2",
      "dense gmbc beta=2 sizes=6,6,6",
      "planted mbc tau=0 hash=d97b7b32ed963110 size=5|5",
      "planted mbc tau=1 hash=d97b7b32ed963110 size=5|5",
      "planted mbc tau=2 hash=d97b7b32ed963110 size=5|5",
      "planted mbc tau=3 hash=d97b7b32ed963110 size=5|5",
      "planted pf beta=5",
      "planted gmbc beta=5 sizes=10,10,10,10,10,10",
      "community mbc tau=0 hash=f494243cfb29304a size=2|4",
      "community mbc tau=1 hash=f494243cfb29304a size=2|4",
      "community mbc tau=2 hash=f494243cfb29304a size=2|4",
      "community mbc tau=3 hash=af63bd4c8601b7df size=0|0",
      "community pf beta=2",
      "community gmbc beta=2 sizes=6,6,6",
      "community2 mbc tau=0 hash=b13cd0db7c24464c size=3|3",
      "community2 mbc tau=1 hash=b13cd0db7c24464c size=3|3",
      "community2 mbc tau=2 hash=b13cd0db7c24464c size=3|3",
      "community2 mbc tau=3 hash=b13cd0db7c24464c size=3|3",
      "community2 pf beta=3",
      "community2 gmbc beta=3 sizes=6,6,6,6",
      "bscl mbc tau=0 hash=09c3c52f61f94a30 size=1|3",
      "bscl mbc tau=1 hash=09c3c52f61f94a30 size=1|3",
      "bscl mbc tau=2 hash=af63bd4c8601b7df size=0|0",
      "bscl mbc tau=3 hash=af63bd4c8601b7df size=0|0",
      "bscl pf beta=1",
      "bscl gmbc beta=1 sizes=4,4",
      "dense_core mbc tau=0 hash=b81e623997949954 size=6|6",
      "dense_core mbc tau=1 hash=b81e623997949954 size=6|6",
      "dense_core mbc tau=2 hash=b81e623997949954 size=6|6",
      "dense_core mbc tau=3 hash=b81e623997949954 size=6|6",
      "dense_core pf beta=6",
      "dense_core gmbc beta=6 sizes=12,12,12,12,12,12,12",
  };
  std::vector<NamedGraph> graphs = PinGraphs();
  graphs.push_back({"dense_core", CommunityGraph(450, 36000, 3, 0.4, 202)});
  std::vector<std::string> got;
  for (const NamedGraph& g : graphs) {
    for (uint32_t tau = 0; tau <= 3; ++tau) {
      const QueryResult r =
          ComputeDegradedResult(g.graph, QueryKind::kMbc, tau);
      if (!r.clique.empty()) {
        EXPECT_TRUE(IsBalancedClique(g.graph, r.clique));
        EXPECT_TRUE(r.clique.SatisfiesThreshold(tau));
      }
      got.push_back(
          Row(std::string(g.name) + " mbc tau=" + std::to_string(tau),
              r.clique));
    }
    const QueryResult pf = ComputeDegradedResult(g.graph, QueryKind::kPf, 0);
    EXPECT_TRUE(pf.gmbc_sizes.empty());
    got.push_back(std::string(g.name) + " pf beta=" +
                  std::to_string(pf.beta));
    const QueryResult gmbc =
        ComputeDegradedResult(g.graph, QueryKind::kGmbc, 0);
    std::string sizes;
    for (uint32_t size : gmbc.gmbc_sizes) {
      if (!sizes.empty()) sizes += ',';
      sizes += std::to_string(size);
    }
    got.push_back(std::string(g.name) + " gmbc beta=" +
                  std::to_string(gmbc.beta) + " sizes=" + sizes);
  }
  ExpectPinned(got, want);
}

}  // namespace
}  // namespace mbc
