// Copyright 2026 The balanced-clique Authors.
#include "src/service/query_service.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "src/core/mbc_star.h"
#include "src/datasets/generators.h"
#include "src/gmbc/gmbc.h"
#include "src/pf/pf_star.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::RandomSignedGraph;

QueryRequest MbcRequest(const std::string& graph, uint32_t tau,
                        const std::string& id = "q") {
  QueryRequest request;
  request.id = id;
  request.graph = graph;
  request.kind = QueryKind::kMbc;
  request.tau = tau;
  return request;
}

TEST(QueryServiceTest, AnswersMatchDirectSolverCalls) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  // Figure 2 ground truth: |C*| = 6 at tau=2, beta = 3.
  QueryResponse mbc = service.Query(MbcRequest("fig2", 2));
  ASSERT_TRUE(mbc.status.ok()) << mbc.status.ToString();
  EXPECT_EQ(mbc.result.clique.size(), 6u);

  QueryRequest pf;
  pf.graph = "fig2";
  pf.kind = QueryKind::kPf;
  QueryResponse pf_response = service.Query(pf);
  ASSERT_TRUE(pf_response.status.ok());
  EXPECT_EQ(pf_response.result.beta, 3u);

  QueryRequest gmbc;
  gmbc.graph = "fig2";
  gmbc.kind = QueryKind::kGmbc;
  QueryResponse gmbc_response = service.Query(gmbc);
  ASSERT_TRUE(gmbc_response.status.ok());
  const GeneralizedMbcResult direct = GeneralizedMbcStar(Figure2Graph());
  EXPECT_EQ(gmbc_response.result.beta, direct.beta);
  ASSERT_EQ(gmbc_response.result.gmbc_sizes.size(), direct.cliques.size());
  for (size_t tau = 0; tau < direct.cliques.size(); ++tau) {
    EXPECT_EQ(gmbc_response.result.gmbc_sizes[tau],
              direct.cliques[tau].size());
  }
}

TEST(QueryServiceTest, AllMbcAlgosAgree) {
  QueryService service;
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(24, 130, 0.45, 11)).ok());
  std::vector<size_t> sizes;
  for (const char* algo : {"star", "baseline", "adv"}) {
    QueryRequest request = MbcRequest("g", 1);
    request.algo = algo;
    QueryResponse response = service.Query(std::move(request));
    ASSERT_TRUE(response.status.ok()) << algo;
    sizes.push_back(response.result.clique.size());
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[0], sizes[2]);
}

TEST(QueryServiceTest, UnknownGraphIsNotFound) {
  QueryService service;
  QueryResponse response = service.Query(MbcRequest("missing", 1));
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(response.id, "q");
}

TEST(QueryServiceTest, UnknownAlgoIsInvalidArgument) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  QueryRequest request = MbcRequest("fig2", 2);
  request.algo = "quantum";
  EXPECT_EQ(service.Query(std::move(request)).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, RepeatQueryHitsCache) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  QueryResponse first = service.Query(MbcRequest("fig2", 2, "a"));
  QueryResponse second = service.Query(MbcRequest("fig2", 2, "b"));
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.result.clique.left, second.result.clique.left);
  EXPECT_EQ(first.result.clique.right, second.result.clique.right);
  EXPECT_EQ(service.Stats().cache.hits, 1u);
}

TEST(QueryServiceTest, NoCacheBypassesLookupAndInsert) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  QueryRequest request = MbcRequest("fig2", 2);
  request.no_cache = true;
  EXPECT_FALSE(service.Query(request).cached);
  EXPECT_FALSE(service.Query(request).cached);
  EXPECT_EQ(service.Stats().cache.insertions, 0u);
  EXPECT_EQ(service.Stats().cache.hits, 0u);
}

TEST(QueryServiceTest, CacheIsContentAddressedAcrossReload) {
  QueryService service;
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(20, 80, 0.5, 4)).ok());
  ASSERT_TRUE(service.Query(MbcRequest("g", 1)).status.ok());
  ASSERT_TRUE(service.store().Evict("g").ok());
  // Identical bytes under the same name: the entry must survive.
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(20, 80, 0.5, 4)).ok());
  EXPECT_TRUE(service.Query(MbcRequest("g", 1)).cached);
  ASSERT_TRUE(service.store().Evict("g").ok());
  // Different bytes under the same name: the entry must NOT be served.
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(20, 80, 0.5, 5)).ok());
  EXPECT_FALSE(service.Query(MbcRequest("g", 1)).cached);
}

TEST(QueryServiceTest, PerQueryTauKeysSeparateCacheEntries) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  ASSERT_TRUE(service.Query(MbcRequest("fig2", 1)).status.ok());
  QueryResponse other_tau = service.Query(MbcRequest("fig2", 2));
  EXPECT_FALSE(other_tau.cached);
  // PF ignores tau, so two PF queries with different tau share one entry.
  QueryRequest pf;
  pf.graph = "fig2";
  pf.kind = QueryKind::kPf;
  pf.tau = 1;
  ASSERT_TRUE(service.Query(pf).status.ok());
  pf.tau = 7;
  EXPECT_TRUE(service.Query(pf).cached);
}

TEST(QueryServiceTest, ExpiredDeadlineIsReportedAndNotCached) {
  QueryService service;
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(64, 600, 0.4, 2)).ok());
  QueryRequest request = MbcRequest("g", 1);
  request.time_limit_seconds = 1e-9;  // expires before the first checkpoint
  QueryResponse response = service.Query(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(service.Stats().cache.insertions, 0u);
  // The same query without the bad budget must run fresh, not hit a
  // poisoned entry.
  QueryResponse good = service.Query(MbcRequest("g", 1));
  EXPECT_TRUE(good.status.ok());
  EXPECT_FALSE(good.cached);
}

TEST(QueryServiceTest, BackpressureRejectsWhenQueueIsFull) {
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue = 4;
  options.start_workers = false;  // queue fills deterministically
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  std::vector<std::future<QueryResponse>> accepted;
  for (size_t i = 0; i < options.max_queue; ++i) {
    Result<std::future<QueryResponse>> submitted =
        service.Submit(MbcRequest("fig2", 2, "ok" + std::to_string(i)));
    ASSERT_TRUE(submitted.ok()) << i;
    accepted.push_back(std::move(submitted).value());
  }
  Result<std::future<QueryResponse>> overflow =
      service.Submit(MbcRequest("fig2", 2, "overflow"));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Stats().queries_rejected, 1u);
  EXPECT_EQ(service.Stats().queue_depth, options.max_queue);

  service.StartWorkers();
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(service.Stats().queries_served, options.max_queue);
}

TEST(QueryServiceTest, ShutdownCancelsQueuedRequests) {
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  Result<std::future<QueryResponse>> submitted =
      service.Submit(MbcRequest("fig2", 2, "doomed"));
  ASSERT_TRUE(submitted.ok());
  service.Shutdown();
  QueryResponse response = submitted.value().get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(response.id, "doomed");
  // Submitting after shutdown fails immediately.
  EXPECT_EQ(service.Submit(MbcRequest("fig2", 2)).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(service.Query(MbcRequest("fig2", 2)).status.code(),
            StatusCode::kCancelled);
}

TEST(QueryServiceTest, StatsJsonContainsTheCounters) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  ASSERT_TRUE(service.Query(MbcRequest("fig2", 2)).status.ok());
  ASSERT_TRUE(service.Query(MbcRequest("fig2", 2)).status.ok());
  const std::string json = service.StatsJson();
  EXPECT_NE(json.find("\"queries_served\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"graphs_loaded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rate\":0.5"), std::string::npos) << json;
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  EXPECT_GE(stats.latency_p95_seconds, stats.latency_p50_seconds);
}

TEST(QueryServiceTest, StatsJsonContainsTransportAndWorkerSections) {
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  ASSERT_TRUE(service.Query(MbcRequest("fig2", 2)).status.ok());
  const std::string json = service.StatsJson();
  EXPECT_NE(json.find("\"transport\":{\"connections_accepted\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"frames_in\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"workers\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mdc_arena_hwm_bytes\":"), std::string::npos) << json;
}

// The per-worker counters and arena high-water marks only ever go up,
// the marks reflect real arena bytes once the solver has run, and the
// worker query counts sum to queries_served.
TEST(QueryServiceTest, WorkerStatsAreMonotone) {
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(options);
  // Dense enough that the MDC search actually recurses (a sparse graph
  // can be fully solved by reductions without touching the arena).
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(48, 700, 0.3, 77)).ok());

  std::vector<WorkerStats> previous(options.num_workers);
  for (uint32_t round = 0; round < 4; ++round) {
    QueryRequest request = MbcRequest("g", 1 + round % 3);
    request.no_cache = true;  // every round must reach a worker's solver
    ASSERT_TRUE(service.Query(request).status.ok());

    const ServiceStats stats = service.Stats();
    ASSERT_EQ(stats.workers.size(), options.num_workers);
    uint64_t total_queries = 0;
    uint64_t total_hwm = 0;
    for (size_t w = 0; w < stats.workers.size(); ++w) {
      EXPECT_GE(stats.workers[w].queries, previous[w].queries)
          << "worker " << w << " round " << round;
      EXPECT_GE(stats.workers[w].mdc_arena_hwm_bytes,
                previous[w].mdc_arena_hwm_bytes)
          << "worker " << w << " round " << round;
      EXPECT_GE(stats.workers[w].dcc_arena_hwm_bytes,
                previous[w].dcc_arena_hwm_bytes)
          << "worker " << w << " round " << round;
      total_queries += stats.workers[w].queries;
      total_hwm += stats.workers[w].mdc_arena_hwm_bytes;
      previous[w] = stats.workers[w];
    }
    EXPECT_EQ(total_queries, stats.queries_served);
    EXPECT_GT(total_hwm, 0u) << "an MDC query ran, so some worker's "
                                "arena must have a footprint";
  }
}

TEST(QueryServiceTest, TrySubmitFullQueueDoesNotCountAsRejected) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  // Saturate: one request on the worker, one in the queue, then TrySubmit
  // until it reports exhaustion.
  std::vector<std::future<QueryResponse>> inflight;
  Status full = Status::OK();
  for (uint32_t i = 0; i < 64; ++i) {
    std::string id = "t";
    id += std::to_string(i);
    QueryRequest request = MbcRequest("fig2", 1 + i % 3, id);
    request.no_cache = true;
    Result<std::future<QueryResponse>> submitted =
        service.TrySubmit(std::move(request));
    if (!submitted.ok()) {
      full = submitted.status();
      break;
    }
    inflight.push_back(std::move(submitted).value());
  }
  for (std::future<QueryResponse>& future : inflight) future.wait();
  if (!full.ok()) {
    EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  }
  // Backpressure retries are not shed requests: the rejected counter only
  // moves for Submit(), never TrySubmit().
  EXPECT_EQ(service.Stats().queries_rejected, 0u);
}

// ---------------------------------------------------------------------
// Intra-query parallelism.

TEST(QueryServiceParallelTest, ParallelAnswerMatchesSequentialStar) {
  ServiceOptions options;
  options.intra_query_threads = 3;
  QueryService service(options);
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(30, 220, 0.45, 19)).ok());

  QueryRequest sequential = MbcRequest("g", 2, "seq");
  sequential.no_cache = true;
  const QueryResponse reference = service.Query(sequential);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  QueryRequest parallel = MbcRequest("g", 2, "par");
  parallel.no_cache = true;
  parallel.parallel_threads = 4;
  const QueryResponse answer = service.Query(parallel);
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  EXPECT_EQ(answer.result.clique.size(), reference.result.clique.size());
}

TEST(QueryServiceParallelTest, ThreadCountsShareOneCacheEntry) {
  // The parallel engine is deterministic across thread counts, so every
  // parallel request caches under one "parallel" label: asking again with
  // a different parallel_threads must hit.
  ServiceOptions options;
  options.intra_query_threads = 4;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  QueryRequest first = MbcRequest("fig2", 2, "p2");
  first.parallel_threads = 2;
  ASSERT_TRUE(service.Query(first).status.ok());

  QueryRequest second = MbcRequest("fig2", 2, "p8");
  second.parallel_threads = 8;
  const QueryResponse hit = service.Query(second);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cached);

  // A plain sequential star request is a different answer contract (its
  // witness is not canonical-lex-min) and must NOT see that entry.
  const QueryResponse sequential = service.Query(MbcRequest("fig2", 2, "s"));
  ASSERT_TRUE(sequential.status.ok());
  EXPECT_FALSE(sequential.cached);
}

TEST(QueryServiceParallelTest, InvalidCompositionsAreRejected) {
  ServiceOptions options;
  options.intra_query_threads = 2;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  QueryRequest pf;
  pf.graph = "fig2";
  pf.kind = QueryKind::kPf;
  pf.parallel_threads = 2;
  EXPECT_EQ(service.Query(pf).status.code(), StatusCode::kInvalidArgument);

  QueryRequest baseline = MbcRequest("fig2", 2);
  baseline.algo = "baseline";
  baseline.parallel_threads = 2;
  EXPECT_EQ(service.Query(baseline).status.code(),
            StatusCode::kInvalidArgument);

  // "parallel" is the engine's internal cache label, never an addressable
  // algo: spelling it directly must fail even without parallel_threads.
  QueryRequest direct = MbcRequest("fig2", 2);
  direct.algo = "parallel";
  EXPECT_EQ(service.Query(direct).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceParallelTest, ZeroBudgetClampsToOneThreadSameAnswer) {
  // intra_query_threads defaults to 0: parallel requests still succeed on
  // one thread and produce the identical answer.
  QueryService service;
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(26, 160, 0.4, 31)).ok());

  QueryRequest request = MbcRequest("g", 1);
  request.no_cache = true;
  request.parallel_threads = 8;
  const QueryResponse clamped = service.Query(request);
  ASSERT_TRUE(clamped.status.ok()) << clamped.status.ToString();

  QueryRequest sequential = MbcRequest("g", 1);
  sequential.no_cache = true;
  const QueryResponse reference = service.Query(sequential);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(clamped.result.clique.size(), reference.result.clique.size());
}

TEST(QueryServiceParallelTest, SchedulerCountersSurfaceInStats) {
  ServiceOptions options;
  options.num_workers = 1;
  options.intra_query_threads = 3;
  QueryService service(options);
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(40, 500, 0.35, 7)).ok());

  QueryRequest request = MbcRequest("g", 1);
  request.no_cache = true;
  request.parallel_threads = 4;
  ASSERT_TRUE(service.Query(request).status.ok());

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.workers.size(), 1u);
  // The counters are cumulative sums over parallel runs; on a graph this
  // small splits may be zero, but the fields must exist and export.
  const std::string json = service.StatsJson();
  EXPECT_NE(json.find("\"steals\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"splits\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"incumbent_updates\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"admission_skipped\":"), std::string::npos) << json;
}

TEST(QueryServiceParallelTest, GmbcWitnessesAreAlwaysComputedOnceCached) {
  // One cache entry serves both the size-only and the witness-bearing
  // shape of the same gmbc query: the witnesses ride in the cached
  // payload and serialization (not execution) gates them.
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  QueryRequest sizes_only;
  sizes_only.graph = "fig2";
  sizes_only.kind = QueryKind::kGmbc;
  const QueryResponse first = service.Query(sizes_only);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result.gmbc_cliques.empty());

  QueryRequest with_witnesses = sizes_only;
  with_witnesses.witnesses = true;
  const QueryResponse second = service.Query(with_witnesses);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cached);
  ASSERT_EQ(second.result.gmbc_cliques.size(),
            second.result.gmbc_sizes.size());
  for (size_t tau = 0; tau < second.result.gmbc_sizes.size(); ++tau) {
    EXPECT_EQ(second.result.gmbc_cliques[tau].size(),
              second.result.gmbc_sizes[tau]);
  }
}

// Streaming acceptance gate: small write batches against a 100k-edge BSCL
// graph, each followed by a replay of a cache-warming read mix, never trip
// the compaction budget, and one batch invalidates well under half of the
// warmed cache.
TEST(QueryServiceStreamingTest, SmallBatchesKeepMostOfTheWarmedCache) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity_bytes = 64ull << 20;
  options.cache_max_entry_bytes = 1ull << 20;
  options.cache_doorkeeper_bytes = 256u << 10;
  QueryService service(options);

  BsclOptions large;
  large.num_vertices = 20000;
  large.num_edges = 100000;
  large.seed = 7;
  BsclOptions small;
  small.num_vertices = 500;
  small.num_edges = 2500;
  small.seed = 11;
  ASSERT_TRUE(service.store().Load("large", GenerateBsclSignedGraph(large))
                  .ok());
  ASSERT_TRUE(service.store().Load("small", GenerateBsclSignedGraph(small))
                  .ok());

  // Mostly small-graph queries at repeating taus, plus two large-graph
  // queries whose witnesses the write batches can hit.
  std::vector<QueryRequest> mix;
  for (uint32_t tau = 3; tau <= 5; ++tau) {
    mix.push_back(MbcRequest("small", tau));
    mix.push_back(MbcRequest("small", tau));
    mix.push_back(MbcRequest("small", tau + 3));
  }
  mix.push_back(MbcRequest("large", 5));
  mix.push_back(MbcRequest("large", 6));
  for (QueryRequest& request : mix) request.time_limit_seconds = 2.0;
  const auto replay_mix = [&service, &mix] {
    for (const QueryRequest& request : mix) {
      const QueryResponse response = service.Query(request);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    }
  };
  replay_mix();
  const size_t warmed_entries = service.Stats().cache.entries;
  ASSERT_GT(warmed_entries, 0u);

  // 16-edge batches: adds of fresh random pairs (1 in 4 negative), and
  // every 4th batch removes previously added pairs, so the net drift stays
  // bounded and removals are real.
  constexpr int kBatches = 50;
  constexpr int kBatchEdges = 16;
  const VertexId n = large.num_vertices;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<std::pair<VertexId, VertexId>> added;
  for (int round = 0; round < kBatches; ++round) {
    const bool removing = round % 4 == 3 && !added.empty();
    MutationBatch batch;
    for (int e = 0; e < kBatchEdges; ++e) {
      if (removing) {
        if (added.empty()) break;
        batch.remove.push_back(added.back());
        added.pop_back();
      } else {
        const VertexId u = static_cast<VertexId>(next() % n);
        VertexId v = static_cast<VertexId>(next() % n);
        if (u == v) v = (v + 1) % n;
        const Sign sign =
            next() % 4 == 0 ? Sign::kNegative : Sign::kPositive;
        batch.add.push_back({u, v, sign});
        added.emplace_back(u, v);
      }
    }
    const auto applied = service.MutateGraph("large", batch);
    ASSERT_TRUE(applied.ok()) << "batch " << round << ": "
                              << applied.status().ToString();
    replay_mix();
  }

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.mutations.batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.mutations.compactions, 0u);
  const double per_batch_invalidation_rate =
      static_cast<double>(stats.cache.invalidated_by_delta) / kBatches /
      static_cast<double>(warmed_entries);
  EXPECT_LT(per_batch_invalidation_rate, 0.5);
}

}  // namespace
}  // namespace mbc
