// Copyright 2026 The balanced-clique Authors.
//
// The traced half of the benchmark. It replays a workload's request
// streams in-process and puts a timer around each call into a layer's
// public functions; nothing inside the library is instrumented.
//
// An MBC* request is replayed as MaxBalancedCliqueStar runs it
// (Algorithm 2): ApplyVertexReduction, MbcHeuristic, KCoreMask +
// InducedSubgraph, DegeneracyDecompose, then per vertex
// DichromaticNetworkBuilder::BuildInto, KCoreWithinInPlace +
// ColoringBoundWithin, MdcSolver::Solve. Every replay is checked against
// a direct MaxBalancedCliqueStar call on the same input: witness hash,
// networks built, MDC instances, branches and the SR1/SR2 ratios must all
// match, so the per-layer times belong to the code the end-to-end run
// measures.
#include <chrono>
#include <memory>
#include <utility>

#include "servicebench/servicebench.h"
#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/mdc_solver.h"
#include "src/core/reductions.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/binary_io.h"
#include "src/graph/cores.h"
#include "src/pf/pf_star.h"
#include "src/service/graph_store.h"
#include "src/service/jsonl.h"
#include "src/service/query_service.h"

namespace servicebench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One traced MBC* run: the answer, the counters the guard compares, and
/// the seconds spent in each layer's calls.
struct StarTrace {
  BalancedClique clique;
  uint64_t networks = 0;
  uint64_t instances = 0;
  uint64_t branches = 0;
  double vertex = 0.0;
  double heuristic = 0.0;
  double kcore = 0.0;
  double degeneracy = 0.0;
  double build = 0.0;
  double prune = 0.0;
  double search = 0.0;
  double total = 0.0;
  /// The Table IV reduction ratios, computed as MaxBalancedCliqueStar
  /// does (the guard compares them too).
  double avg_sr1 = -1.0;
  double avg_sr2 = -1.0;
};

BalancedClique Materialize(const mbc::DichromaticNetwork& net,
                           const std::vector<uint32_t>& locals,
                           const std::vector<VertexId>& to_input) {
  BalancedClique clique;
  for (uint32_t local : locals) {
    const VertexId v = to_input[net.to_original[local]];
    (net.graph.IsLeft(local) ? clique.left : clique.right).push_back(v);
  }
  clique.Canonicalize();
  return clique;
}

/// MaxBalancedCliqueStar with default options, one timer per layer call.
/// The bookkeeping between calls (rank pre-check, SR statistics) is kept
/// so the replay does the same work; it is the unattributed time.
StarTrace ReplayStar(const SignedGraph& graph, uint32_t tau) {
  StarTrace trace;
  const Clock::time_point begin = Clock::now();

  Clock::time_point span = Clock::now();
  mbc::ReducedSignedGraph reduced = mbc::ApplyVertexReduction(graph, tau);
  trace.vertex = Since(span);

  BalancedClique best;
  span = Clock::now();
  if (reduced.graph.NumVertices() > 0) {
    BalancedClique heu = mbc::MbcHeuristic(reduced.graph, tau);
    if (heu.size() > best.size()) {
      heu.MapToOriginal(reduced.to_original);
      best = std::move(heu);
    }
  }
  trace.heuristic = Since(span);

  size_t prune_bound = best.size();
  if (tau >= 1) {
    prune_bound = std::max<size_t>(prune_bound, 2 * size_t{tau} - 1);
  }

  span = Clock::now();
  const std::vector<uint8_t> core_alive =
      mbc::KCoreMask(reduced.graph, static_cast<uint32_t>(prune_bound));
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < reduced.graph.NumVertices(); ++v) {
    if (core_alive[v]) keep.push_back(v);
  }
  SignedGraph::InducedResult cored = reduced.graph.InducedSubgraph(keep);
  const SignedGraph& work = cored.graph;
  std::vector<VertexId> to_input(work.NumVertices());
  for (VertexId v = 0; v < work.NumVertices(); ++v) {
    to_input[v] = reduced.to_original[cored.to_original[v]];
  }
  trace.kcore = Since(span);

  if (work.NumVertices() > 0) {
    span = Clock::now();
    const mbc::DegeneracyResult degeneracy = mbc::DegeneracyDecompose(work);
    trace.degeneracy = Since(span);

    span = Clock::now();
    mbc::DichromaticNetworkBuilder builder(work);
    trace.build += Since(span);
    double sr1_sum = 0.0;
    double sr2_sum = 0.0;
    uint64_t sr_count = 0;
    mbc::DichromaticNetwork net;
    mbc::MdcSolver solver;
    mbc::SearchArena prune_arena;
    mbc::Bitset alive;
    mbc::Bitset alive_sans_u;
    mbc::Bitset candidates;
    std::vector<uint32_t> solution;
    const std::vector<uint32_t> seed{0};

    for (auto it = degeneracy.order.rbegin(); it != degeneracy.order.rend();
         ++it) {
      const VertexId u = *it;
      uint32_t higher = 0;
      for (VertexId v : work.PositiveNeighbors(u)) {
        higher += degeneracy.rank[v] > degeneracy.rank[u];
      }
      for (VertexId v : work.NegativeNeighbors(u)) {
        higher += degeneracy.rank[v] > degeneracy.rank[u];
      }
      if (static_cast<size_t>(higher) + 1 <= prune_bound) continue;

      span = Clock::now();
      builder.BuildInto(u, degeneracy.rank.data(), nullptr, &net);
      trace.build += Since(span);
      ++trace.networks;
      const uint32_t k = net.graph.NumVertices();
      if (static_cast<size_t>(k) <= prune_bound) continue;

      span = Clock::now();
      prune_arena.BindNetwork(k);
      alive.ReshapeUninit(k);
      alive.SetAll();
      size_t alive_count = k;
      mbc::KCoreWithinInPlace(net.graph, &alive,
                              static_cast<uint32_t>(prune_bound),
                              &prune_arena.pending(), &alive_count);
      const bool pruned =
          !alive.Test(0) || alive_count <= prune_bound ||
          mbc::ColoringBoundWithin(net.graph, alive,
                                   static_cast<uint32_t>(prune_bound),
                                   &prune_arena) <= prune_bound;
      trace.prune += Since(span);
      if (pruned) continue;

      ++trace.instances;
      if (net.ego_edges > 0) {
        alive_sans_u.CopyFrom(alive);
        alive_sans_u.Reset(0);
        const uint64_t core_edges = net.graph.EdgesWithin(alive_sans_u);
        sr1_sum += 1.0 - static_cast<double>(net.dichromatic_edges) /
                             static_cast<double>(net.ego_edges);
        sr2_sum += 1.0 - static_cast<double>(core_edges) /
                             static_cast<double>(net.ego_edges);
        ++sr_count;
      }

      span = Clock::now();
      candidates.CopyFrom(alive);
      candidates.Reset(0);
      solver.Rebind(net.graph);
      const bool improved = solver.Solve(
          seed, candidates, static_cast<int32_t>(tau) - 1,
          static_cast<int32_t>(tau), prune_bound, &solution);
      trace.search += Since(span);
      trace.branches += solver.branches();
      if (improved) {
        best = Materialize(net, solution, to_input);
        prune_bound = best.size();
      }
    }
    if (sr_count > 0) {
      trace.avg_sr1 = sr1_sum / static_cast<double>(sr_count);
      trace.avg_sr2 = sr2_sum / static_cast<double>(sr_count);
    }
  }
  trace.total = Since(begin);
  best.Canonicalize();
  trace.clique = std::move(best);
  return trace;
}

/// Adds one traced MBC* run to the layer totals.
void AddStar(const StarTrace& trace, ReplayResult* result) {
  result->seconds["reductions.vertex"] += trace.vertex;
  result->seconds["mbc_heu.seed"] += trace.heuristic;
  result->seconds["cores.kcore"] += trace.kcore;
  result->seconds["cores.degeneracy"] += trace.degeneracy;
  result->seconds["network_builder.build"] += trace.build;
  result->seconds["dichromatic_reductions.prune"] += trace.prune;
  result->seconds["mdc_solver.search"] += trace.search;
  result->seconds["trace.unattributed"] +=
      trace.total - (trace.vertex + trace.heuristic + trace.kcore +
                     trace.degeneracy + trace.build + trace.prune +
                     trace.search);
  ++result->star_calls;
  result->networks_built += trace.networks;
  result->mdc_instances += trace.instances;
  result->mdc_branches += trace.branches;
}

void Fail(ReplayResult* result, const std::string& why) {
  ++result->failed;
  if (result->errors.size() < 8) result->errors.push_back(why);
}

/// Replays one MBC* request traced and untraced (alternating which runs
/// first) and applies the replay guard. Returns the traced run.
StarTrace GuardedStar(const SignedGraph& graph, uint32_t tau,
                      ReplayResult* result) {
  const bool direct_first = result->star_calls % 2 == 0;
  mbc::MbcStarResult direct;
  double direct_seconds = 0.0;
  const auto run_direct = [&] {
    const Clock::time_point start = Clock::now();
    direct = mbc::MaxBalancedCliqueStar(graph, tau);
    direct_seconds = Since(start);
  };
  if (direct_first) run_direct();
  StarTrace trace = ReplayStar(graph, tau);
  if (!direct_first) run_direct();
  direct.clique.Canonicalize();
  result->star_direct_seconds += direct_seconds;
  result->star_traced_seconds += trace.total;
  if (WitnessHash(trace.clique) != WitnessHash(direct.clique) ||
      trace.networks != direct.stats.num_networks_built ||
      trace.instances != direct.stats.num_mdc_instances ||
      trace.branches != direct.stats.mdc_branches ||
      trace.avg_sr1 != direct.stats.avg_sr1 ||
      trace.avg_sr2 != direct.stats.avg_sr2) {
    Fail(result, "replay guard: tau " + std::to_string(tau) + " replay " +
                     trace.clique.ToString() + " networks " +
                     std::to_string(trace.networks) + " instances " +
                     std::to_string(trace.instances) + " branches " +
                     std::to_string(trace.branches) + " vs direct " +
                     direct.clique.ToString() + " " +
                     std::to_string(direct.stats.num_networks_built) + " " +
                     std::to_string(direct.stats.num_mdc_instances) + " " +
                     std::to_string(direct.stats.mdc_branches));
  }
  AddStar(trace, result);
  return trace;
}

/// Median over `reps` of the summed per-graph time of `load`.
template <typename LoadFn>
double MedianLoadMs(const Workload& workload,
                    const std::map<std::string, GraphInput>& inputs, int reps,
                    LoadFn load) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    double total = 0.0;
    for (const std::string& graph : workload.graphs) {
      const Clock::time_point start = Clock::now();
      load(inputs.at(graph));
      total += Since(start);
    }
    samples.push_back(total * 1e3);
  }
  return Median(samples);
}

}  // namespace

void RunReplay(const Workload& workload,
               const std::map<std::string, GraphInput>& inputs,
               const std::vector<Answer>& references, uint64_t seed,
               double seconds, ReplayResult* result) {
  result->mmap_ms =
      MedianLoadMs(workload, inputs, 5, [&](const GraphInput& input) {
        if (!mbc::MmapSignedGraphBinary(input.path).ok()) {
          Fail(result, "mmap " + input.path);
        }
      });
  result->load_ms =
      MedianLoadMs(workload, inputs, 5, [&](const GraphInput& input) {
        mbc::GraphStore store;
        if (!store.LoadFromFile(input.name, input.path).ok()) {
          Fail(result, "load " + input.path);
        }
      });

  // A writing workload is replayed through an in-process QueryService,
  // so cache hits, invalidation and re-keying happen as they do when
  // serving; solver layers are then timed by replaying each miss.
  std::unique_ptr<mbc::QueryService> service;
  if (workload.write_every > 0) {
    mbc::ServiceOptions options;
    options.num_workers = kServerWorkers;
    options.cache_max_entry_bytes = 1 << 20;  // the mbc_serve defaults
    options.cache_doorkeeper_bytes = 256 << 10;
    service = std::make_unique<mbc::QueryService>(options);
    for (const std::string& graph : workload.graphs) {
      if (!service->store().LoadFromFile(graph, inputs.at(graph).path).ok()) {
        Fail(result, "service load " + graph);
        return;
      }
    }
    for (const Shape& shape : workload.shapes) {
      mbc::Result<mbc::JsonlFields> fields = mbc::ParseJsonlLine(shape.line);
      if (fields.ok()) {
        mbc::Result<mbc::QueryRequest> request =
            mbc::QueryRequestFromFields(fields.value());
        if (request.ok()) service->Query(request.value());
      }
    }
  }

  const VertexId write_vertices =
      workload.write_every > 0
          ? inputs.at(workload.write_graph).graph.NumVertices()
          : 0;
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < kClients; ++c) {
    streams.emplace_back(workload, seed, c, write_vertices);
  }
  double query_seconds = 0.0;
  double attributed_seconds = 0.0;
  const mbc::JsonlOptions jsonl_options;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  for (uint64_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
    const StreamOp op = streams[i % streams.size()].Next();
    ++result->ops;

    if (op.IsWrite()) {
      Clock::time_point span = Clock::now();
      mbc::Result<mbc::JsonlFields> fields = mbc::ParseJsonlLine(op.write.line);
      mbc::MutationBatch batch;
      const bool parsed =
          fields.ok() && mbc::ParseMutationEdges(
                             mbc::JsonlField(fields.value(), "edges"),
                             op.write.add, &batch)
                             .ok();
      const double parse = Since(span);
      ++result->parse_calls;
      span = Clock::now();
      const bool applied =
          parsed && service->MutateGraph(workload.write_graph, batch).ok();
      const double mutate = Since(span);
      if (!applied) Fail(result, "mutation failed: " + op.write.line);
      result->seconds["jsonl.parse"] += parse;
      result->seconds["graph_store.mutate"] += mutate;
      result->mutate_ms.push_back(mutate * 1e3);
      result->traced_seconds += parse + mutate;
      continue;
    }

    const size_t index = static_cast<size_t>(op.shape);
    const Shape& shape = workload.shapes[index];
    Clock::time_point span = Clock::now();
    mbc::Result<mbc::JsonlFields> fields = mbc::ParseJsonlLine(shape.line);
    mbc::Result<mbc::QueryRequest> request =
        fields.ok() ? mbc::QueryRequestFromFields(fields.value())
                    : mbc::Result<mbc::QueryRequest>(fields.status());
    const double parse = Since(span);
    ++result->parse_calls;
    result->seconds["jsonl.parse"] += parse;
    result->traced_seconds += parse;
    if (!request.ok()) {
      Fail(result, "request rejected: " + shape.line);
      continue;
    }

    mbc::QueryResponse response;
    const SignedGraph& static_graph = inputs.at(shape.graph).graph;
    std::string why;
    if (service != nullptr) {
      span = Clock::now();
      response = service->Query(request.value());
      const double query = Since(span);
      query_seconds += query;
      result->traced_seconds += query;
      if (!response.status.ok()) {
        Fail(result, shape.line + ": " + response.status.ToString());
        continue;
      }
      const bool mutated = shape.graph == workload.write_graph;
      if (!response.cached && mutated) {
        // A miss on the mutated graph: replay it on the same head.
        const mbc::GraphStore::SnapshotPtr head =
            service->store().Find(shape.graph).value();
        double replayed = 0.0;
        if (shape.IsStar()) {
          const StarTrace trace = GuardedStar(head->graph(), shape.tau, result);
          replayed = trace.total;
          if (!(response.result.clique == trace.clique)) {
            Fail(result, "service answer differs from replay on " + shape.line);
          }
        } else if (shape.kind == QueryKind::kMbcHeu) {
          span = Clock::now();
          const BalancedClique heu =
              mbc::MbcHeuristicSearch(head->graph(), shape.tau,
                                      mbc::MbcHeuOptions{})
                  .clique;
          replayed = Since(span);
          result->seconds["mbc_heu.seed"] += replayed;
          if (!(response.result.clique == heu)) {
            Fail(result, "service answer differs from replay on " + shape.line);
          }
        }
        attributed_seconds += replayed;
        ++result->replayed_misses;
        if (replayed > query) ++result->replay_over_query;
      } else if (!mutated) {
        Answer got;
        got.clique = response.result.clique;
        got.beta = response.result.beta;
        got.sizes = response.result.gmbc_sizes;
        if (!CheckAnswer(shape, static_graph, references[index], got, &why)) {
          Fail(result, shape.line + ": " + why);
        }
      }
    } else {
      Answer got;
      if (shape.IsStar()) {
        got.clique = GuardedStar(static_graph, shape.tau, result).clique;
      } else if (shape.kind == QueryKind::kPf) {
        span = Clock::now();
        const mbc::PfStarResult pf = mbc::PolarizationFactorStar(static_graph);
        const double solve = Since(span);
        result->seconds["pf_star.solve"] += solve;
        result->traced_seconds += solve;
        ++result->pf_calls;
        result->dcc_branches += pf.stats.dcc_branches;
        result->dcc_instances += pf.stats.num_dcc_instances;
        got.beta = pf.beta;
      } else if (shape.kind == QueryKind::kMbc) {
        span = Clock::now();
        mbc::MaxBalancedCliqueStar(static_graph, shape.tau);
        result->parallel_sequential_seconds += Since(span);
        mbc::ParallelMbcOptions options;
        options.num_threads = shape.parallel_threads;
        span = Clock::now();
        mbc::ParallelMbcResult parallel =
            mbc::ParallelMaxBalancedCliqueStar(static_graph, shape.tau,
                                               options);
        const double solve = Since(span);
        result->seconds["mbc_parallel.solve"] += solve;
        result->parallel_seconds += solve;
        result->traced_seconds += solve;
        ++result->parallel_calls;
        result->steals += parallel.num_steals;
        result->splits += parallel.num_splits;
        parallel.clique.Canonicalize();
        got.clique = std::move(parallel.clique);
      }
      if (!CheckAnswer(shape, static_graph, references[index], got, &why)) {
        Fail(result, shape.line + ": " + why);
      }
      response.result.clique = got.clique;
      response.result.beta = got.beta;
    }

    span = Clock::now();
    mbc::SerializeResponse(request.value(), response, jsonl_options);
    const double serialize = Since(span);
    ++result->serialize_calls;
    result->seconds["jsonl.serialize"] += serialize;
    result->traced_seconds += serialize;
  }

  // Star replays on the cold path are top-level spans of their own; on
  // the service path they are attributed inside the Query span.
  if (service == nullptr) {
    result->traced_seconds += result->star_traced_seconds;
  } else {
    result->self_clamped = attributed_seconds > query_seconds;
    result->seconds["query_service.self"] +=
        std::max(0.0, query_seconds - attributed_seconds);
  }
}

}  // namespace servicebench
