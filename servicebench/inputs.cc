// Copyright 2026 The balanced-clique Authors.
//
// Workload definitions, input graphs, reference answers, the seeded
// request streams and the response reader.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "servicebench/servicebench.h"
#include "src/common/fingerprint.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/gmbc/gmbc.h"
#include "src/graph/binary_io.h"
#include "src/graph/signed_graph_builder.h"
#include "src/pf/pf_star.h"

namespace servicebench {
namespace {

/// A fixed input graph: one generator call with pinned parameters.
struct GraphSpec {
  const char* name;
  bool bscl;  // false = community family
  VertexId vertices;
  mbc::EdgeCount edges;
  uint32_t communities;
  double negative_ratio;
  uint64_t seed;
};

const GraphSpec kGraphs[] = {
    {"bscl_1m", true, 200000, 1200000, 0, 0.0, 7},
    {"bscl_100k", true, 20000, 100000, 0, 0.0, 7},
    {"dense_core", false, 450, 36000, 3, 0.4, 202},
    {"dense_pair", false, 300, 30000, 2, 0.45, 5},
};

const GraphSpec* FindGraph(const std::string& name) {
  for (const GraphSpec& spec : kGraphs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

SignedGraph Generate(const GraphSpec& spec) {
  if (spec.bscl) {
    mbc::BsclOptions options;
    options.num_vertices = spec.vertices;
    options.num_edges = spec.edges;
    options.seed = spec.seed;
    return mbc::GenerateBsclSignedGraph(options);
  }
  mbc::CommunityGraphOptions options;
  options.num_vertices = spec.vertices;
  options.num_edges = spec.edges;
  options.num_communities = spec.communities;
  options.negative_ratio = spec.negative_ratio;
  options.seed = spec.seed;
  return mbc::GenerateCommunitySignedGraph(options);
}

Shape MakeShape(const std::string& graph, QueryKind kind, uint32_t tau,
                uint32_t parallel_threads, bool no_cache) {
  Shape shape;
  shape.graph = graph;
  shape.kind = kind;
  shape.tau = tau;
  shape.parallel_threads = parallel_threads;
  shape.no_cache = no_cache;
  shape.line = "{\"op\":\"query\",\"graph\":\"" + graph + "\",\"kind\":\"" +
               mbc::QueryKindName(kind) + "\"";
  if (mbc::KindUsesTau(kind)) {
    shape.line += ",\"tau\":" + std::to_string(tau);
  }
  if (parallel_threads > 0) {
    shape.line +=
        ",\"parallel_threads\":" + std::to_string(parallel_threads);
  }
  if (no_cache) shape.line += ",\"no_cache\":true";
  shape.line += "}";
  return shape;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> workloads;

  // Cold MBC* on the million-edge BSCL graph: the preamble (reduction,
  // heuristic, cores, network build) is almost all of the work.
  Workload large;
  large.name = "large_cold";
  large.graphs = {"bscl_1m"};
  for (uint32_t tau = 2; tau <= 4; ++tau) {
    large.shapes.push_back(
        MakeShape("bscl_1m", QueryKind::kMbc, tau, 0, /*no_cache=*/true));
  }
  large.setup_shapes = {2};  // tau 4, the cheapest solve
  workloads.push_back(large);

  // Cold search kernels on dense community graphs: MDC, DCC (pf) and
  // the work-stealing engine carry the time.
  Workload dense;
  dense.name = "dense_cold";
  dense.graphs = {"dense_core", "dense_pair"};
  dense.intra_query_threads = 2;
  for (const std::string& graph : dense.graphs) {
    dense.setup_shapes.push_back(dense.shapes.size());
    for (uint32_t tau = 2; tau <= 4; ++tau) {
      dense.shapes.push_back(
          MakeShape(graph, QueryKind::kMbc, tau, 0, /*no_cache=*/true));
    }
    dense.shapes.push_back(
        MakeShape(graph, QueryKind::kMbc, 3, 2, /*no_cache=*/true));
    dense.shapes.push_back(
        MakeShape(graph, QueryKind::kPf, 0, 0, /*no_cache=*/true));
  }
  workloads.push_back(dense);

  // Cache-hot reads beside a write stream: the serving layers (JSONL,
  // transport, cache, delta graph) carry the cost; solvers run only for
  // keys a write invalidated.
  Workload hot;
  hot.name = "hot_churn";
  hot.graphs = {"bscl_100k", "dense_core"};
  for (uint32_t tau = 3; tau <= 6; ++tau) {
    hot.shapes.push_back(MakeShape("bscl_100k", QueryKind::kMbc, tau, 0,
                                   /*no_cache=*/false));
  }
  hot.shapes.push_back(MakeShape("bscl_100k", QueryKind::kMbcHeu, 3, 0,
                                 /*no_cache=*/false));
  hot.shapes.push_back(
      MakeShape("dense_core", QueryKind::kGmbc, 0, 0, /*no_cache=*/false));
  hot.setup_shapes = {0, 5};
  hot.write_every = 50;
  hot.write_graph = "bscl_100k";
  workloads.push_back(hot);
  return workloads;
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = BuildWorkloads();
  return workloads;
}

/// Identity of the running binary: generated inputs are reused only by
/// the binary (and so the generator code) that wrote them.
std::string BinaryStamp() {
  char path[4096];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return "unknown";
  path[n] = '\0';
  struct stat st = {};
  if (::stat(path, &st) != 0) return "unknown";
  return std::to_string(st.st_size) + ":" + std::to_string(st.st_mtime);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& workload : AllWorkloads()) {
    names.push_back(workload.name);
  }
  return names;
}

uint64_t WitnessHash(const BalancedClique& clique) {
  mbc::Fnv1aHasher hasher;
  hasher.Mix(clique.left.size());
  for (VertexId v : clique.left) hasher.Mix(v);
  hasher.Mix(clique.right.size());
  for (VertexId v : clique.right) hasher.Mix(v);
  return hasher.hash();
}

bool PrepareInputs(const Workload& workload, const std::string& data_dir,
                   std::map<std::string, GraphInput>* inputs,
                   std::string* error) {
  const std::string stamp = BinaryStamp();
  for (const std::string& name : workload.graphs) {
    const GraphSpec* spec = FindGraph(name);
    if (spec == nullptr) {
      *error = "unknown graph " + name;
      return false;
    }
    GraphInput input;
    input.name = name;
    input.path = data_dir + "/" + name + ".mbcg";
    const std::string stamp_path = data_dir + "/" + name + ".stamp";
    bool fresh = ReadFile(stamp_path) == stamp;
    if (fresh) {
      mbc::Result<SignedGraph> loaded = mbc::ReadSignedGraphBinary(input.path);
      fresh = loaded.ok();
      if (fresh) input.graph = std::move(loaded).value();
    }
    if (!fresh) {
      input.graph = Generate(*spec);
      const mbc::Status status =
          mbc::WriteSignedGraphBinary(input.graph, input.path);
      if (!status.ok()) {
        *error = "cannot write " + input.path + ": " + status.ToString();
        return false;
      }
      std::ofstream(stamp_path) << stamp;
    }
    (*inputs)[name] = std::move(input);
  }
  return true;
}

Answer SolveDirect(const Shape& shape, const SignedGraph& graph) {
  Answer answer;
  switch (shape.kind) {
    case QueryKind::kMbc:
      if (shape.parallel_threads > 0) {
        mbc::ParallelMbcOptions options;
        options.num_threads = shape.parallel_threads;
        answer.clique =
            mbc::ParallelMaxBalancedCliqueStar(graph, shape.tau, options)
                .clique;
      } else {
        answer.clique = mbc::MaxBalancedCliqueStar(graph, shape.tau).clique;
      }
      answer.clique.Canonicalize();
      break;
    case QueryKind::kMbcHeu:
      answer.clique =
          mbc::MbcHeuristicSearch(graph, shape.tau, mbc::MbcHeuOptions{})
              .clique;
      break;
    case QueryKind::kPf:
      answer.beta = mbc::PolarizationFactorStar(graph).beta;
      break;
    case QueryKind::kGmbc: {
      const mbc::GeneralizedMbcResult result = mbc::GeneralizedMbcStar(graph);
      answer.beta = result.beta;
      for (const BalancedClique& clique : result.cliques) {
        answer.sizes.push_back(static_cast<uint32_t>(clique.size()));
      }
      break;
    }
    case QueryKind::kMbcTol:
      break;  // no workload sends it
  }
  return answer;
}

bool IsValidClique(const SignedGraph& graph, const BalancedClique& clique,
                   uint32_t tau) {
  if (clique.empty()) return true;
  return clique.SatisfiesThreshold(tau) &&
         mbc::IsBalancedClique(graph, clique);
}

bool CheckAnswer(const Shape& shape, const SignedGraph& graph,
                 const Answer& expected, const Answer& got,
                 std::string* why) {
  switch (shape.kind) {
    case QueryKind::kMbc:
    case QueryKind::kMbcHeu:
      if (!IsValidClique(graph, got.clique, shape.tau)) {
        *why = "invalid clique " + got.clique.ToString();
        return false;
      }
      if (got.clique.size() != expected.clique.size() ||
          WitnessHash(got.clique) != WitnessHash(expected.clique)) {
        *why = "clique " + got.clique.ToString() + " != reference " +
               expected.clique.ToString();
        return false;
      }
      return true;
    case QueryKind::kPf:
      if (got.beta != expected.beta) {
        *why = "beta " + std::to_string(got.beta) + " != reference " +
               std::to_string(expected.beta);
        return false;
      }
      return true;
    case QueryKind::kGmbc:
      if (got.beta != expected.beta || got.sizes != expected.sizes) {
        *why = "gmbc beta/sizes differ from reference";
        return false;
      }
      return true;
    case QueryKind::kMbcTol:
      break;
  }
  *why = "unchecked kind";
  return false;
}

RequestStream::RequestStream(const Workload& workload, uint64_t seed,
                             size_t client, VertexId write_vertices)
    : workload_(workload),
      writer_(client == 0 && workload.write_every > 0),
      write_vertices_(write_vertices),
      order_rng_(seed * 0x100000001b3ull),
      write_rng_(seed * 0x100000001b3ull + client + 1) {}

StreamOp RequestStream::Next() {
  StreamOp op;
  ++ops_;
  if (writer_ && ops_ % workload_.write_every == 0) {
    op.write = NextWrite();
    return op;
  }
  if (cursor_ == cycle_.size()) {
    cycle_.resize(workload_.shapes.size());
    for (size_t i = 0; i < cycle_.size(); ++i) cycle_[i] = static_cast<int>(i);
    for (size_t i = cycle_.size(); i > 1; --i) {
      std::swap(cycle_[i - 1], cycle_[SplitMix(&order_rng_) % i]);
    }
    cursor_ = 0;
  }
  op.shape = cycle_[cursor_++];
  return op;
}

WriteBatch RequestStream::NextWrite() {
  WriteBatch batch;
  ++writes_;
  // Odd batches add fresh random pairs; even ones remove the most recent
  // additions, so the graph drifts but stays bounded.
  batch.add = writes_ % 2 == 1 || added_.empty();
  std::set<std::pair<VertexId, VertexId>> seen;  // the protocol rejects repeats
  std::string edges;
  const auto append = [&](VertexId u, VertexId v, const char* sign) {
    if (!edges.empty()) edges += ';';
    edges += std::to_string(u) + " " + std::to_string(v) + sign;
  };
  while (batch.edges.size() < kWriteBatchEdges) {
    VertexId u = 0;
    VertexId v = 0;
    if (batch.add) {
      u = static_cast<VertexId>(SplitMix(&write_rng_) % write_vertices_);
      v = static_cast<VertexId>(SplitMix(&write_rng_) % write_vertices_);
      if (u == v) continue;
    } else {
      if (added_.empty()) break;
      std::tie(u, v) = added_.back();
      added_.pop_back();
    }
    if (!seen.insert(std::minmax(u, v)).second) continue;
    mbc::MutationEdge edge;
    edge.u = u;
    edge.v = v;
    if (batch.add) {
      edge.sign = SplitMix(&write_rng_) % 4 == 0 ? mbc::Sign::kNegative
                                                 : mbc::Sign::kPositive;
      added_.emplace_back(u, v);
      append(u, v, edge.sign == mbc::Sign::kPositive ? " +" : " -");
    } else {
      append(u, v, "");
    }
    batch.edges.push_back(edge);
  }
  batch.line = std::string("{\"op\":\"") +
               (batch.add ? "add_edges" : "remove_edges") + "\",\"name\":\"" +
               workload_.write_graph + "\",\"edges\":\"" + edges + "\"}";
  return batch;
}

void EdgeHistory::Record(uint32_t batch, const WriteBatch& write) {
  for (const mbc::MutationEdge& edge : write.edges) {
    const int8_t state =
        !write.add ? 0 : (edge.sign == mbc::Sign::kPositive ? 1 : -1);
    history_[Key(edge.u, edge.v)].emplace_back(batch, state);
  }
}

std::optional<mbc::Sign> EdgeHistory::SignAt(uint32_t batch, VertexId u,
                                             VertexId v) const {
  const auto it = history_.find(Key(u, v));
  if (it != history_.end()) {
    const auto& entries = it->second;
    for (auto e = entries.rbegin(); e != entries.rend(); ++e) {
      if (e->first > batch) continue;
      if (e->second == 0) return std::nullopt;
      return e->second > 0 ? mbc::Sign::kPositive : mbc::Sign::kNegative;
    }
  }
  return base_->EdgeSign(u, v);
}

bool EdgeHistory::IsValidCliqueAt(uint32_t batch, const BalancedClique& clique,
                                  uint32_t tau) const {
  if (clique.empty()) return true;
  if (!clique.SatisfiesThreshold(tau)) return false;
  std::vector<std::pair<VertexId, int>> members;
  for (VertexId v : clique.left) members.emplace_back(v, 0);
  for (VertexId v : clique.right) members.emplace_back(v, 1);
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].first >= base_->NumVertices()) return false;
    for (size_t j = i + 1; j < members.size(); ++j) {
      const std::optional<mbc::Sign> sign =
          SignAt(batch, members[i].first, members[j].first);
      const mbc::Sign want = members[i].second == members[j].second
                                 ? mbc::Sign::kPositive
                                 : mbc::Sign::kNegative;
      if (!sign.has_value() || *sign != want) return false;
    }
  }
  return true;
}

SignedGraph EdgeHistory::Head() const {
  mbc::SignedGraphBuilder builder(base_->NumVertices());
  base_->ForEachEdge([&](VertexId u, VertexId v, mbc::Sign sign) {
    if (history_.count(Key(u, v)) == 0) builder.AddEdge(u, v, sign);
  });
  for (const auto& [key, entries] : history_) {
    const int8_t state = entries.back().second;
    if (state == 0) continue;
    builder.AddEdge(static_cast<VertexId>(key >> 32),
                    static_cast<VertexId>(key & 0xffffffffu),
                    state > 0 ? mbc::Sign::kPositive : mbc::Sign::kNegative);
  }
  return std::move(builder).Build();
}

namespace {

/// Raw value starting at `pos` (just past the colon).
std::string ValueAt(const std::string& line, size_t pos) {
  if (pos >= line.size()) return "";
  if (line[pos] == '"') {
    std::string out;
    for (size_t i = pos + 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        out.push_back(line[++i]);
      } else if (line[i] == '"') {
        break;
      } else {
        out.push_back(line[i]);
      }
    }
    return out;
  }
  if (line[pos] == '[' || line[pos] == '{') {
    int depth = 0;
    for (size_t i = pos; i < line.size(); ++i) {
      if (line[i] == '[' || line[i] == '{') ++depth;
      if (line[i] == ']' || line[i] == '}') --depth;
      if (depth == 0) return line.substr(pos, i + 1 - pos);
    }
    return line.substr(pos);
  }
  const size_t end = line.find_first_of(",}", pos);
  return line.substr(pos, end == std::string::npos ? std::string::npos
                                                   : end - pos);
}

bool ParseIds(const std::string& raw, std::vector<VertexId>* out) {
  out->clear();
  if (raw.size() < 2 || raw.front() != '[' || raw.back() != ']') return false;
  size_t i = 1;
  while (i + 1 < raw.size()) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(raw.c_str() + i, &end, 10);
    if (end == raw.c_str() + i) return false;
    out->push_back(static_cast<VertexId>(value));
    i = static_cast<size_t>(end - raw.c_str());
    if (i < raw.size() && raw[i] == ',') ++i;
  }
  return true;
}

}  // namespace

std::optional<std::string> RawField(const std::string& line,
                                    const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const size_t pos = line.find(key);
  if (pos == std::string::npos) return std::nullopt;
  return ValueAt(line, pos + key.size());
}

std::vector<std::string> RawFields(const std::string& line,
                                   const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  std::vector<std::string> values;
  for (size_t pos = line.find(key); pos != std::string::npos;
       pos = line.find(key, pos + key.size())) {
    values.push_back(ValueAt(line, pos + key.size()));
  }
  return values;
}

bool ParseAnswer(const std::string& line, QueryKind kind, Answer* answer) {
  if (RawField(line, "ok") != "true") return false;
  switch (kind) {
    case QueryKind::kMbc:
    case QueryKind::kMbcHeu: {
      const auto left = RawField(line, "left");
      const auto right = RawField(line, "right");
      return left && right && ParseIds(*left, &answer->clique.left) &&
             ParseIds(*right, &answer->clique.right);
    }
    case QueryKind::kPf:
    case QueryKind::kGmbc: {
      const auto beta = RawField(line, "beta");
      if (!beta) return false;
      answer->beta = static_cast<uint32_t>(std::strtoul(beta->c_str(),
                                                        nullptr, 10));
      if (kind == QueryKind::kPf) return true;
      const auto sizes = RawField(line, "sizes");
      return sizes && ParseIds(*sizes, &answer->sizes);
    }
    case QueryKind::kMbcTol:
      break;
  }
  return false;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size(), static_cast<size_t>(std::max(1.0, rank))) - 1;
  return values[index];
}

}  // namespace servicebench
