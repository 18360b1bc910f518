// Copyright 2026 The balanced-clique Authors.
//
// Shared fixtures for the test suite, including concrete renderings of the
// paper's toy graphs (Figures 2-4).
#ifndef MBC_TESTS_TEST_UTIL_H_
#define MBC_TESTS_TEST_UTIL_H_

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/logging.h"
#include "src/datasets/generators.h"
#include "src/graph/signed_graph.h"
#include "src/graph/signed_graph_builder.h"

namespace mbc {
namespace testing_util {

/// Parses a `u v s` edge list, preserving numeric vertex ids verbatim
/// (unlike ParseSignedEdgeList, which densifies by first appearance).
inline SignedGraph FromText(const std::string& text) {
  SignedGraphBuilder builder;
  std::istringstream in(text);
  long long u = 0;
  long long v = 0;
  long long s = 0;
  while (in >> u >> v >> s) {
    MBC_CHECK(s == 1 || s == -1);
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v),
                    s == 1 ? Sign::kPositive : Sign::kNegative);
  }
  return std::move(builder).Build();
}

/// The running example of the paper's Figure 2 (concrete rendering
/// consistent with all facts stated in Section II): 8 vertices,
/// C = {v1,v2 | v3,v4} is a balanced clique, the maximum balanced clique
/// for τ=2 is C* = {v3,v4,v5 | v6,v7,v8} of size 6, and β(G) = 3.
/// Vertex vi has id i-1.
inline SignedGraph Figure2Graph() {
  return FromText(R"(
    0 1 1
    2 3 1
    0 2 -1
    0 3 -1
    1 2 -1
    1 3 -1
    2 4 1
    3 4 1
    5 6 1
    5 7 1
    6 7 1
    2 5 -1
    2 6 -1
    2 7 -1
    3 5 -1
    3 6 -1
    3 7 -1
    4 5 -1
    4 6 -1
    4 7 -1
  )");
}

/// The paper's Figure 3: a complete signed graph on 6 vertices whose
/// unsigned coloring bound is 6, but whose maximum balanced clique has size
/// 3 for τ=0 and 2 for τ=1. Rendered as K6 with a negative perfect
/// matching {(0,3), (1,4), (2,5)} (all other edges positive).
inline SignedGraph Figure3Graph() {
  std::string text;
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      const bool negative = (v - u) == 3;
      text += std::to_string(u) + " " + std::to_string(v) +
              (negative ? " -1\n" : " 1\n");
    }
  }
  return FromText(text);
}

/// A concrete rendering of the paper's Figure 4(a) (Example 1): v0 has
/// positive neighbors {v1, v3, v4} and negative neighbors {v5, v6, v7};
/// v2 and v8 are not adjacent to v0. The ego-network G_v0 has 12 edges
/// among v0's neighbors, of which exactly 6 are conflicting:
/// (v1,v4)-, (v1,v5)+, (v3,v5)+, (v4,v5)+, (v3,v7)+, (v4,v7)+.
/// Vertex vi has id i.
inline SignedGraph Figure4Graph() {
  return FromText(R"(
    0 1 1
    0 3 1
    0 4 1
    0 5 -1
    0 6 -1
    0 7 -1
    1 4 -1
    1 5 1
    3 5 1
    4 5 1
    3 7 1
    4 7 1
    1 3 1
    3 4 1
    6 7 1
    5 6 1
    1 6 -1
    4 6 -1
    1 2 1
    7 8 -1
  )");
}

/// Deterministic random signed graph for property tests.
inline SignedGraph RandomSignedGraph(VertexId n, EdgeCount m,
                                     double negative_ratio, uint64_t seed) {
  CommunityGraphOptions options;
  options.num_vertices = n;
  options.num_edges = m;
  options.num_communities = 3;
  options.negative_ratio = negative_ratio;
  options.intra_community_bias = 0.6;
  options.powerlaw_alpha = 0.4;
  options.seed = seed;
  return GenerateCommunitySignedGraph(options);
}

struct PinGraph {
  const char* name;
  SignedGraph graph;
};

/// The graphs the peel-order pins (cores_test, pdecompose_test) run on:
/// the Figure 2 example, a random graph, the bench_heuristic_quality
/// dense_core and planted_clique families, and a hub-heavy BSCL graph.
inline std::vector<PinGraph> PeelPinGraphs() {
  std::vector<PinGraph> graphs;
  graphs.push_back({"figure2", Figure2Graph()});
  graphs.push_back({"random", RandomSignedGraph(300, 2400, 0.35, 19)});
  CommunityGraphOptions dense;
  dense.num_vertices = 450;
  dense.num_edges = 36000;
  dense.num_communities = 3;
  dense.negative_ratio = 0.4;
  dense.seed = 202;
  graphs.push_back({"dense_core", GenerateCommunitySignedGraph(dense)});
  CommunityGraphOptions planted;
  planted.num_vertices = 1200;
  planted.num_edges = 120000;
  planted.num_communities = 2;
  planted.negative_ratio = 0.48;
  planted.powerlaw_alpha = 0.0;
  planted.seed = 303;
  graphs.push_back(
      {"planted_clique",
       PlantBalancedCliques(GenerateCommunitySignedGraph(planted),
                            {{13, 13}, {9, 10}}, 977)});
  BsclOptions bscl;
  bscl.num_vertices = 20000;
  bscl.num_edges = 100000;
  bscl.seed = 7;
  graphs.push_back({"bscl", GenerateBsclSignedGraph(bscl)});
  return graphs;
}

/// One pin-table row for a peel: FNV-1a hashes of the order, the rank and
/// the per-vertex core numbers, plus the largest core number.
inline std::string PeelPinRow(const char* name,
                              const std::vector<VertexId>& order,
                              const std::vector<uint32_t>& rank,
                              const std::vector<uint32_t>& core,
                              uint32_t max_core) {
  auto hash = [](const std::vector<uint32_t>& values) {
    Fnv1aHasher hasher;
    hasher.Mix(values.size());
    for (uint32_t value : values) hasher.Mix(value);
    return static_cast<unsigned long long>(hasher.hash());
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s order=%016llx rank=%016llx "
                "core=%016llx max=%u", name, hash(order), hash(rank),
                hash(core), max_core);
  return buf;
}

/// Raw blocking loopback client for transport tests that need finer
/// control than RunJsonlSocketClient (held-open connections, partial
/// writes, abrupt disconnects). Returns the connected fd, or -1.
inline int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking send of the whole buffer. Returns false on any error.
inline bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking read until the peer closes (or errors). Returns the bytes.
inline std::string RecvAll(int fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(buffer, static_cast<size_t>(n));
  }
}

}  // namespace testing_util
}  // namespace mbc

#endif  // MBC_TESTS_TEST_UTIL_H_
