// Copyright 2026 The balanced-clique Authors.
#include "src/service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/execution.h"
#include "src/core/mbc_adv.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/core/mbc_tolerant.h"
#include "src/core/mdc_solver.h"
#include "src/gmbc/gmbc.h"
#include "src/pf/dcc_solver.h"
#include "src/service/degraded.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_star.h"

namespace mbc {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Algorithm label after defaulting: the cache must treat "star" and ""
/// as one key.
std::string NormalizedAlgo(const QueryRequest& request) {
  if (!request.algo.empty()) return request.algo;
  return "star";
}

/// Whether this request runs the intra-query parallel engine (assumes
/// ValidateRequest passed).
bool IsParallelRequest(const QueryRequest& request) {
  return request.parallel_threads > 0 && request.kind == QueryKind::kMbc;
}

/// The cache label. Parallel runs cache under their own "parallel" label:
/// one entry serves every thread count (the engine is deterministic), but
/// the witness may legitimately differ from sequential MBC*'s (parallel
/// returns the canonical lex-min optimum), so the two must not share a key.
/// Warm-started runs likewise get a "+warm" suffix: the parallel engine's
/// witness is warm-start-neutral, but sequential MBC*'s first-found-max
/// witness can legitimately differ with a better starting incumbent, so
/// warm and cold entries never share a key. The heuristic and tolerant
/// kinds have exactly one engine each; their fixed labels keep the key
/// independent of how the (absent) algo field was spelled.
std::string CacheAlgoLabel(const QueryRequest& request) {
  if (request.kind == QueryKind::kMbcHeu) return "heu";
  if (request.kind == QueryKind::kMbcTol) return "tol";
  std::string label =
      IsParallelRequest(request) ? "parallel" : NormalizedAlgo(request);
  if (request.warm_start) label += "+warm";
  return label;
}

/// Rejects option combinations no engine runs. parallel_threads composes
/// only with kind=mbc and the default (star) algorithm; "parallel" is not
/// an algo label callers may spell directly (it would alias the parallel
/// engine's cache entries). warm_start composes only with engines that
/// accept an initial incumbent (MBC* and the parallel engine — both behind
/// the default algo); its kind restriction is also enforced at the
/// protocol layer.
Status ValidateRequest(const QueryRequest& request) {
  if (request.algo == "parallel") {
    return Status::InvalidArgument(
        "algo 'parallel' is not addressable; request intra-query "
        "parallelism with the parallel_threads field");
  }
  const std::pair<bool, const char*> star_only[] = {
      {request.parallel_threads > 0, "parallel_threads"},
      {request.warm_start, "warm_start"}};
  for (const auto& [set, field] : star_only) {
    if (!set) continue;
    if (request.kind != QueryKind::kMbc) {
      return Status::InvalidArgument(std::string(field) +
                                     " is only valid for kind 'mbc'");
    }
    if (NormalizedAlgo(request) != "star") {
      return Status::InvalidArgument(
          std::string(field) +
          " requires the default (star) algorithm, got '" + request.algo +
          "'");
    }
  }
  return Status::OK();
}

/// The cache key of `request`'s answer on the graph with `fingerprint`.
/// PF / gMBC answers don't depend on the request's tau, so it is pinned
/// to 0 ("pf tau=1" and "pf tau=7" share an entry); the tolerance is keyed
/// only for kMbcTol. The heuristic tier is inexact by definition, so its
/// entries live under the degraded tag and can never answer an exact query.
CacheKey CacheKeyFor(const QueryRequest& request, uint64_t fingerprint) {
  CacheKey key;
  key.graph_fingerprint = fingerprint;
  key.kind = request.kind;
  key.tau = KindUsesTau(request.kind) ? request.tau : 0;
  key.tolerance = request.kind == QueryKind::kMbcTol ? request.tolerance : 0;
  key.algo = CacheAlgoLabel(request);
  if (request.kind == QueryKind::kMbcHeu) {
    key.exactness = CacheExactness::kDegraded;
  }
  return key;
}

/// The key of the brownout tier's answer: the degraded tag and a fixed
/// "greedy" label (the greedy ignores the algo field). Still keyed
/// per-tolerance, although the greedy answer itself ignores the budget.
CacheKey DegradedCacheKeyFor(const QueryRequest& request,
                             uint64_t fingerprint) {
  CacheKey key = CacheKeyFor(request, fingerprint);
  key.algo = "greedy";
  key.exactness = CacheExactness::kDegraded;
  return key;
}

}  // namespace

struct QueryService::WorkerState {
  MdcSolver mdc_solver;
  DccSolver dcc_solver;
  /// Running totals of the intra-query scheduler counters, accumulated by
  /// Execute and published (relaxed store, single writer) by WorkerLoop.
  uint64_t steals = 0;
  uint64_t splits = 0;
  uint64_t incumbent_updates = 0;
};

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity_bytes, options.cache_max_entry_bytes,
             options.cache_doorkeeper_bytes),
      overload_(options.overload, &latency_),
      chaos_(options.fault_injection.has_value() ? *options.fault_injection
                                                 : EnvServiceFaultOptions()),
      started_at_(std::chrono::steady_clock::now()) {
  worker_counters_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    worker_counters_.push_back(std::make_unique<WorkerCounters>());
  }
  parallel_tokens_.store(static_cast<int64_t>(options_.intra_query_threads),
                         std::memory_order_relaxed);
  if (options_.start_workers) StartWorkers();
}

uint32_t QueryService::AcquireParallelTokens(uint32_t want) {
  if (want == 0) return 0;
  int64_t available = parallel_tokens_.load(std::memory_order_relaxed);
  while (available > 0) {
    const int64_t take =
        std::min<int64_t>(available, static_cast<int64_t>(want));
    if (parallel_tokens_.compare_exchange_weak(available, available - take,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      return static_cast<uint32_t>(take);
    }
  }
  return 0;
}

void QueryService::ReleaseParallelTokens(uint32_t granted) {
  if (granted > 0) {
    parallel_tokens_.fetch_add(static_cast<int64_t>(granted),
                               std::memory_order_acq_rel);
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::StartWorkers() {
  std::lock_guard lock(mutex_);
  if (workers_started_ || stopping_) return;
  workers_started_ = true;
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void QueryService::Shutdown() {
  std::deque<Task> orphaned;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    orphaned.swap(queue_);
  }
  work_available_.notify_all();
  space_available_.notify_all();
  for (Task& task : orphaned) {
    QueryResponse response;
    response.id = task.request.id;
    response.status = Status::Cancelled("service shut down before the query ran");
    task.promise.set_value(std::move(response));
    if (options_.on_task_complete) options_.on_task_complete();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::future<QueryResponse> QueryService::ImmediateResponse(
    Task& task, QueryResponse&& response) {
  std::future<QueryResponse> future = task.promise.get_future();
  response.id = task.request.id;
  task.promise.set_value(std::move(response));
  return future;
}

std::optional<std::future<QueryResponse>> QueryService::BrownoutAdmit(
    Task& task) {
  // Brownout never runs exact work for a fresh query, but an answer that
  // already exists is free: prefer the exact cached one, then a degraded
  // one. Everything else drops to the greedy tier (still queued — the
  // degeneracy greedy is O(m), cheap but not poll-thread cheap).
  if (const Status valid = ValidateRequest(task.request); !valid.ok()) {
    QueryResponse response;
    response.status = valid;
    return ImmediateResponse(task, std::move(response));
  }
  Result<GraphStore::SnapshotPtr> snapshot = store_.Find(task.request.graph);
  if (!snapshot.ok()) {
    QueryResponse response;
    response.status = snapshot.status();
    return ImmediateResponse(task, std::move(response));
  }
  if (task.request.no_cache) return std::nullopt;
  const uint64_t fingerprint = snapshot.value()->fingerprint();
  if (std::optional<QueryResult> hit =
          cache_.Lookup(CacheKeyFor(task.request, fingerprint))) {
    QueryResponse response;
    response.result = std::move(*hit);
    response.cached = true;
    return ImmediateResponse(task, std::move(response));
  }
  if (std::optional<QueryResult> hit =
          cache_.Lookup(DegradedCacheKeyFor(task.request, fingerprint))) {
    QueryResponse response;
    response.result = std::move(*hit);
    response.cached = true;
    response.degraded = true;
    queries_degraded_.fetch_add(1, std::memory_order_relaxed);
    return ImmediateResponse(task, std::move(response));
  }
  return std::nullopt;
}

Result<std::future<QueryResponse>> QueryService::SubmitInternal(
    QueryRequest request, SubmitMode mode) {
  Task task;
  task.request = std::move(request);
  if (task.request.deadline_ms > 0) {
    task.deadline = Deadline::After(task.request.deadline_ms / 1000.0);
  }

  if (options_.overload.enabled) {
    OverloadState state;
    {
      std::lock_guard lock(mutex_);
      if (stopping_) return Status::Cancelled("service is shut down");
      state = overload_.Update(queue_.size(), options_.max_queue);
    }
    if (state == OverloadState::kShedding) {
      queries_shed_overload_.fetch_add(1, std::memory_order_relaxed);
      QueryResponse response;
      response.status = Status::ResourceExhausted(
          "service is shedding load (queue depth over the shed threshold); "
          "retry with backoff");
      return ImmediateResponse(task, std::move(response));
    }
    if (state == OverloadState::kBrownout) {
      std::optional<std::future<QueryResponse>> immediate = BrownoutAdmit(task);
      if (immediate.has_value()) return std::move(*immediate);
      task.degraded = true;
    }
  }

  std::future<QueryResponse> future = task.promise.get_future();
  {
    std::unique_lock lock(mutex_);
    if (mode == SubmitMode::kBlock) {
      space_available_.wait(lock, [this] {
        return stopping_ || queue_.size() < options_.max_queue;
      });
    }
    if (stopping_) {
      return Status::Cancelled("service is shut down");
    }
    if (queue_.size() >= options_.max_queue) {
      if (mode == SubmitMode::kFail) {
        queries_rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "admission queue is full (" + std::to_string(options_.max_queue) +
            " pending queries)");
      }
      return Status::ResourceExhausted("admission queue is full");
    }
    // Degraded (brownout) tasks jump the queue: they exist to drain load,
    // so they must not wait behind the very backlog that caused them.
    if (task.degraded) {
      queue_.push_front(std::move(task));
    } else {
      queue_.push_back(std::move(task));
    }
    overload_.Update(queue_.size(), options_.max_queue);
  }
  work_available_.notify_one();
  return future;
}

Result<std::future<QueryResponse>> QueryService::Submit(QueryRequest request) {
  return SubmitInternal(std::move(request), SubmitMode::kFail);
}

Result<std::future<QueryResponse>> QueryService::TrySubmit(
    QueryRequest request) {
  return SubmitInternal(std::move(request), SubmitMode::kTry);
}

Result<std::future<QueryResponse>> QueryService::SubmitBlocking(
    QueryRequest request) {
  return SubmitInternal(std::move(request), SubmitMode::kBlock);
}

Result<QueryService::MutationResponse> QueryService::MutateGraph(
    const std::string& name, const MutationBatch& batch) {
  DeltaBudget budget;
  budget.max_delta_bytes = options_.max_delta_bytes;
  budget.compact_ratio = options_.compact_ratio;
  MBC_ASSIGN_OR_RETURN(const GraphStore::MutationOutcome outcome,
                       store_.Mutate(name, batch, budget));
  const DeltaApplyResult& stats = outcome.stats;

  mutation_batches_.fetch_add(1, std::memory_order_relaxed);
  mutation_edges_added_.fetch_add(stats.added, std::memory_order_relaxed);
  mutation_edges_removed_.fetch_add(stats.removed, std::memory_order_relaxed);
  mutation_edges_flipped_.fetch_add(stats.flipped, std::memory_order_relaxed);
  mutation_noops_.fetch_add(stats.noops, std::memory_order_relaxed);
  if (stats.compacted) {
    mutation_compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  mutation_core_affected_.fetch_add(outcome.core_affected,
                                    std::memory_order_relaxed);
  mutation_core_visited_.fetch_add(outcome.core_visited,
                                   std::memory_order_relaxed);

  MutationResponse response;
  response.version = stats.version;
  response.fingerprint = stats.fingerprint;
  response.added = stats.added;
  response.removed = stats.removed;
  response.flipped = stats.flipped;
  response.noops = stats.noops;
  response.core_affected = outcome.core_affected;
  response.core_visited = outcome.core_visited;
  response.delta_bytes = stats.delta_bytes;
  response.compacted = stats.compacted;
  if (stats.added + stats.removed + stats.flipped > 0) {
    // One invalidation pass even when the batch auto-compacted: the
    // outcome fingerprint is then already the content address, so the
    // survivors land directly under their final key.
    CacheDelta delta;
    delta.old_fingerprint = outcome.old_fingerprint;
    delta.new_fingerprint = stats.fingerprint;
    delta.dirty = stats.dirty;
    delta.add_clique_bound = stats.add_clique_bound;
    delta.content_changed = true;
    const CacheDeltaOutcome applied = cache_.ApplyDelta(delta);
    response.cache_invalidated = applied.invalidated;
    response.cache_rekeyed = applied.rekeyed;
  }
  return response;
}

Result<QueryService::SnapshotResponse> QueryService::SnapshotGraph(
    const std::string& name) {
  MBC_ASSIGN_OR_RETURN(const GraphStore::CompactionOutcome outcome,
                       store_.Compact(name));
  SnapshotResponse response;
  response.version = outcome.version;
  response.fingerprint = outcome.fingerprint;
  response.compacted = outcome.changed;
  if (outcome.changed) {
    mutation_compactions_.fetch_add(1, std::memory_order_relaxed);
    // A pure rekey: the adjacency is untouched, only the fingerprint
    // moved from the derived lineage to the content address.
    CacheDelta delta;
    delta.old_fingerprint = outcome.old_fingerprint;
    delta.new_fingerprint = outcome.fingerprint;
    delta.content_changed = false;
    response.cache_rekeyed = cache_.ApplyDelta(delta).rekeyed;
  }
  return response;
}

QueryResponse QueryService::Query(QueryRequest request) {
  const std::string id = request.id;
  Result<std::future<QueryResponse>> submitted =
      SubmitBlocking(std::move(request));
  if (!submitted.ok()) {
    QueryResponse response;
    response.id = id;
    response.status = submitted.status();
    return response;
  }
  return submitted.value().get();
}

void QueryService::WorkerLoop(size_t worker_index) {
  WorkerState state;
  WorkerCounters& counters = *worker_counters_[worker_index];
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      overload_.Update(queue_.size(), options_.max_queue);
    }
    space_available_.notify_one();
    // Queue shedding: a query whose end-to-end deadline expired while it
    // waited is answered without running — the client has already given
    // up on it, so solving it exactly (or at all) helps nobody. Shed
    // queries are never cached and count as sheds, not serves.
    if (task.deadline.Expired()) {
      queries_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      QueryResponse shed;
      shed.id = task.request.id;
      shed.status = Status::DeadlineExceeded(
          "deadline_ms expired while the query was queued");
      task.promise.set_value(std::move(shed));
      if (options_.on_task_complete) options_.on_task_complete();
      continue;
    }
    QueryResponse response = Execute(state, task);
    // Publish this worker's counters and arena footprint (as a running
    // max — the mark is monotone by construction even if a solver is
    // ever rebound) BEFORE fulfilling the promise, so a caller that sees
    // the response also sees the stats that produced it.
    counters.queries.fetch_add(1, std::memory_order_relaxed);
    const auto raise = [](std::atomic<uint64_t>& mark, uint64_t seen) {
      uint64_t current = mark.load(std::memory_order_relaxed);
      while (seen > current &&
             !mark.compare_exchange_weak(current, seen,
                                         std::memory_order_relaxed)) {
      }
    };
    raise(counters.mdc_arena_hwm_bytes, state.mdc_solver.ArenaMemoryBytes());
    raise(counters.dcc_arena_hwm_bytes, state.dcc_solver.ArenaMemoryBytes());
    // Scheduler counters: single writer (this worker), so plain stores of
    // the running totals suffice.
    counters.steals.store(state.steals, std::memory_order_relaxed);
    counters.splits.store(state.splits, std::memory_order_relaxed);
    counters.incumbent_updates.store(state.incumbent_updates,
                                     std::memory_order_relaxed);
    task.promise.set_value(std::move(response));
    if (options_.on_task_complete) options_.on_task_complete();
  }
}

QueryResponse QueryService::ExecuteDegraded(const Task& task) {
  const QueryRequest& request = task.request;
  QueryResponse response;
  response.id = request.id;
  Result<GraphStore::SnapshotPtr> snapshot = store_.Find(request.graph);
  if (!snapshot.ok()) {
    response.status = snapshot.status();
    return response;
  }
  const SignedGraph& graph = snapshot.value()->graph();
  response.result = ComputeDegradedResult(graph, request.kind, request.tau);
  response.degraded = true;
  queries_degraded_.fetch_add(1, std::memory_order_relaxed);
  if (!request.no_cache) {
    // Degraded answers live under their own exactness tag: an exact query
    // can never be satisfied by this entry.
    cache_.Insert(
        DegradedCacheKeyFor(request, snapshot.value()->fingerprint()),
        response.result);
  }
  return response;
}

QueryResponse QueryService::Execute(WorkerState& state, const Task& task) {
  const QueryRequest& request = task.request;
  const auto start = std::chrono::steady_clock::now();
  QueryResponse response;
  response.id = request.id;

  const auto finish = [&](QueryResponse&& done) {
    done.seconds = SecondsSince(start);
    latency_.Record(done.seconds);
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    if (!done.status.ok()) {
      queries_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(done);
  };

  // Service-layer chaos: a stalled worker delays this query (and whoever
  // queues behind it); an injected allocation failure fails it before any
  // solver runs. Both are deterministic draws from the injector's seed.
  if (chaos_.armed()) {
    if (chaos_.DrawWorkerStall()) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          chaos_.options().worker_stall_ms));
    }
    if (chaos_.DrawAllocFail()) {
      response.status = Status::ResourceExhausted(
          "injected allocation failure (service chaos)");
      return finish(std::move(response));
    }
  }

  if (task.degraded) return finish(ExecuteDegraded(task));

  if (const Status valid = ValidateRequest(request); !valid.ok()) {
    response.status = valid;
    return finish(std::move(response));
  }
  Result<GraphStore::SnapshotPtr> snapshot = store_.Find(request.graph);
  if (!snapshot.ok()) {
    response.status = snapshot.status();
    return finish(std::move(response));
  }
  const SignedGraph& graph = snapshot.value()->graph();
  const std::string algo = NormalizedAlgo(request);

  const CacheKey key = CacheKeyFor(request, snapshot.value()->fingerprint());

  if (!request.no_cache) {
    if (std::optional<QueryResult> hit = cache_.Lookup(key)) {
      response.result = std::move(*hit);
      response.cached = true;
      return finish(std::move(response));
    }
  }

  ExecutionContext exec;
  const double time_limit = request.time_limit_seconds > 0
                                ? request.time_limit_seconds
                                : options_.default_time_limit_seconds;
  // The solver runs under the tighter of the solve budget and whatever is
  // left of the end-to-end deadline_ms: a query admitted with 50ms left
  // must not burn a 10s time limit.
  Deadline solve_deadline =
      time_limit > 0 ? Deadline::After(time_limit) : Deadline::Infinite();
  if (!task.deadline.IsInfinite() &&
      (solve_deadline.IsInfinite() ||
       task.deadline.RemainingSeconds() < solve_deadline.RemainingSeconds())) {
    solve_deadline = task.deadline;
  }
  if (!solve_deadline.IsInfinite()) exec.set_deadline(solve_deadline);
  if (request.memory_limit_mb > 0) {
    exec.set_memory_budget(
        MemoryBudget::Limit(request.memory_limit_mb << 20));
  }

  switch (request.kind) {
    case QueryKind::kMbc: {
      // Warm start: run the heuristic tier inline (under the same
      // execution budget) and hand its clique to the exact engine as the
      // initial incumbent. Recomputed per query rather than pulled from
      // the cache — a degraded entry's provenance is the brownout sweep,
      // not necessarily the full local-search heuristic.
      BalancedClique warm_clique;
      if (request.warm_start) {
        MbcHeuOptions heu_options;
        heu_options.exec = &exec;
        warm_clique =
            MbcHeuristicSearch(graph, request.tau, heu_options).clique;
      }
      const BalancedClique* initial =
          (!warm_clique.empty() && warm_clique.SatisfiesThreshold(request.tau))
              ? &warm_clique
              : nullptr;
      if (IsParallelRequest(request)) {
        // Intra-query parallelism: this pool worker plus whatever extra
        // threads the shared token budget can lend right now. A zero
        // grant (budget off or exhausted) degrades to the same engine on
        // 1 thread — the answer is byte-identical either way, only the
        // latency changes, so the grant is invisible to clients and the
        // "parallel" cache entry is safe to share.
        const uint32_t extra_wanted =
            options_.intra_query_threads == 0 ? 0
                                              : request.parallel_threads - 1;
        const uint32_t granted = AcquireParallelTokens(
            std::min(extra_wanted, options_.intra_query_threads));
        ParallelMbcOptions options;
        options.exec = &exec;
        options.num_threads = 1 + granted;
        options.initial_clique = initial;
        ParallelMbcResult result =
            ParallelMaxBalancedCliqueStar(graph, request.tau, options);
        ReleaseParallelTokens(granted);
        response.result.clique = std::move(result.clique);
        state.steals += result.num_steals;
        state.splits += result.num_splits;
        state.incumbent_updates += result.num_incumbent_updates;
      } else if (algo == "star") {
        MbcStarOptions options;
        options.exec = &exec;
        options.shared_solver = &state.mdc_solver;
        options.initial_clique = initial;
        response.result.clique =
            MaxBalancedCliqueStar(graph, request.tau, options).clique;
      } else if (algo == "baseline") {
        MbcBaselineOptions options;
        options.exec = &exec;
        response.result.clique =
            MaxBalancedCliqueBaseline(graph, request.tau, options).clique;
      } else if (algo == "adv") {
        MbcAdvOptions options;
        options.exec = &exec;
        response.result.clique =
            MaxBalancedCliqueAdv(graph, request.tau, options).clique;
      } else {
        response.status =
            Status::InvalidArgument("unknown mbc algo '" + algo + "'");
        return finish(std::move(response));
      }
      response.result.clique.Canonicalize();
      break;
    }
    case QueryKind::kMbcHeu: {
      if (!request.algo.empty() && request.algo != "heu") {
        response.status =
            Status::InvalidArgument("unknown mbc_heu algo '" + request.algo +
                                    "'");
        return finish(std::move(response));
      }
      MbcHeuOptions options;
      options.exec = &exec;
      // MbcHeuristicSearch already canonicalizes its witness.
      response.result.clique =
          MbcHeuristicSearch(graph, request.tau, options).clique;
      break;
    }
    case QueryKind::kMbcTol: {
      if (!request.algo.empty() && request.algo != "tol") {
        response.status =
            Status::InvalidArgument("unknown mbc_tol algo '" + request.algo +
                                    "'");
        return finish(std::move(response));
      }
      MbcTolerantOptions options;
      options.exec = &exec;
      MbcTolerantResult result = MaxTolerantBalancedClique(
          graph, request.tau, request.tolerance, options);
      response.result.clique = std::move(result.clique);
      response.result.frustrated = result.frustrated_edges;
      break;
    }
    case QueryKind::kPf: {
      if (algo == "star") {
        PfStarOptions options;
        options.exec = &exec;
        options.shared_solver = &state.dcc_solver;
        response.result.beta = PolarizationFactorStar(graph, options).beta;
      } else if (algo == "bs") {
        PfBsOptions options;
        options.exec = &exec;
        response.result.beta =
            PolarizationFactorBinarySearch(graph, options).beta;
      } else {
        response.status =
            Status::InvalidArgument("unknown pf algo '" + algo + "'");
        return finish(std::move(response));
      }
      break;
    }
    case QueryKind::kGmbc: {
      GeneralizedMbcOptions options;
      options.exec = &exec;
      GeneralizedMbcResult result;
      if (algo == "star") {
        result = GeneralizedMbcStar(graph, options);
      } else if (algo == "basic") {
        result = GeneralizedMbc(graph, options);
      } else {
        response.status =
            Status::InvalidArgument("unknown gmbc algo '" + algo + "'");
        return finish(std::move(response));
      }
      response.result.beta = result.beta;
      response.result.gmbc_sizes.reserve(result.cliques.size());
      for (const BalancedClique& clique : result.cliques) {
        response.result.gmbc_sizes.push_back(
            static_cast<uint32_t>(clique.size()));
      }
      // Witnesses ride along unconditionally (the serializer gates them
      // on request.witnesses) so one cache entry serves both shapes.
      for (BalancedClique& clique : result.cliques) clique.Canonicalize();
      response.result.gmbc_cliques = std::move(result.cliques);
      break;
    }
  }

  // Every solver above reports `exec.reason()` as its verdict, and nothing
  // sets the reason after it returns, so it is the whole query's verdict.
  const InterruptReason interrupt = exec.reason();
  if (interrupt != InterruptReason::kNone) {
    // Partial answers stay in `result` (best-effort), but are reported as
    // interrupted and never cached: a later identical query must re-run.
    response.status = InterruptStatus(interrupt);
    return finish(std::move(response));
  }
  if (!request.no_cache) cache_.Insert(key, response.result);
  return finish(std::move(response));
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  stats.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  stats.queries_shed_deadline =
      queries_shed_deadline_.load(std::memory_order_relaxed);
  stats.queries_shed_overload =
      queries_shed_overload_.load(std::memory_order_relaxed);
  stats.queries_degraded = queries_degraded_.load(std::memory_order_relaxed);
  stats.overload_state = overload_.state();
  stats.uptime_seconds = SecondsSince(started_at_);
  {
    std::lock_guard lock(mutex_);
    stats.queue_depth = queue_.size();
    stats.num_workers = workers_.size();
  }
  stats.graphs_loaded = store_.size();
  stats.latency_p50_seconds = latency_.Quantile(0.5);
  stats.latency_p95_seconds = latency_.Quantile(0.95);
  const uint64_t count = latency_.count();
  stats.latency_mean_seconds =
      count == 0 ? 0.0 : latency_.total_seconds() / static_cast<double>(count);
  stats.cache = cache_.Stats();
  stats.mutations.batches = mutation_batches_.load(std::memory_order_relaxed);
  stats.mutations.edges_added =
      mutation_edges_added_.load(std::memory_order_relaxed);
  stats.mutations.edges_removed =
      mutation_edges_removed_.load(std::memory_order_relaxed);
  stats.mutations.edges_flipped =
      mutation_edges_flipped_.load(std::memory_order_relaxed);
  stats.mutations.noops = mutation_noops_.load(std::memory_order_relaxed);
  stats.mutations.compactions =
      mutation_compactions_.load(std::memory_order_relaxed);
  stats.mutations.core_affected =
      mutation_core_affected_.load(std::memory_order_relaxed);
  stats.mutations.core_visited =
      mutation_core_visited_.load(std::memory_order_relaxed);
  stats.transport.connections_accepted =
      transport_counters_.connections_accepted.load(std::memory_order_relaxed);
  stats.transport.connections_rejected =
      transport_counters_.connections_rejected.load(std::memory_order_relaxed);
  stats.transport.connections_active =
      transport_counters_.connections_active.load(std::memory_order_relaxed);
  stats.transport.frames_in =
      transport_counters_.frames_in.load(std::memory_order_relaxed);
  stats.transport.frames_out =
      transport_counters_.frames_out.load(std::memory_order_relaxed);
  stats.transport.queries_shed_quota =
      transport_counters_.queries_shed_quota.load(std::memory_order_relaxed);
  stats.transport.submit_retries =
      transport_counters_.submit_retries.load(std::memory_order_relaxed);
  stats.workers.reserve(worker_counters_.size());
  for (const auto& counters : worker_counters_) {
    WorkerStats worker;
    worker.queries = counters->queries.load(std::memory_order_relaxed);
    worker.mdc_arena_hwm_bytes =
        counters->mdc_arena_hwm_bytes.load(std::memory_order_relaxed);
    worker.dcc_arena_hwm_bytes =
        counters->dcc_arena_hwm_bytes.load(std::memory_order_relaxed);
    worker.steals = counters->steals.load(std::memory_order_relaxed);
    worker.splits = counters->splits.load(std::memory_order_relaxed);
    worker.incumbent_updates =
        counters->incumbent_updates.load(std::memory_order_relaxed);
    stats.workers.push_back(worker);
  }
  return stats;
}

std::string QueryService::StatsJson(bool deterministic) const {
  const ServiceStats stats = Stats();
  char buffer[2560];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"queries_served\":%llu,\"queries_rejected\":%llu,"
      "\"queries_failed\":%llu,\"queries_shed_deadline\":%llu,"
      "\"queries_shed_overload\":%llu,\"queries_degraded\":%llu,"
      "\"overload_state\":\"%s\",\"queue_depth\":%zu,\"num_workers\":%zu,"
      "\"graphs_loaded\":%zu,\"latency_p50_seconds\":%.6f,"
      "\"latency_p95_seconds\":%.6f,\"latency_mean_seconds\":%.6f,"
      "\"cache\":{\"hits\":%llu,\"misses\":%llu,\"insertions\":%llu,"
      "\"degraded_insertions\":%llu,\"admission_skipped\":%llu,"
      "\"admission_rejected_by_policy\":%llu,"
      "\"evictions\":%llu,\"invalidated_by_delta\":%llu,"
      "\"rekeyed_by_delta\":%llu,\"entries\":%zu,\"memory_bytes\":%zu,"
      "\"hit_rate\":%.4f},"
      "\"mutations\":{\"batches\":%llu,\"edges_added\":%llu,"
      "\"edges_removed\":%llu,\"edges_flipped\":%llu,\"noops\":%llu,"
      "\"compactions\":%llu,\"core_affected\":%llu,\"core_visited\":%llu},"
      "\"transport\":{\"connections_accepted\":%llu,"
      "\"connections_rejected\":%llu,\"connections_active\":%lld,"
      "\"frames_in\":%llu,\"frames_out\":%llu,"
      "\"queries_shed_quota\":%llu,\"submit_retries\":%llu}",
      static_cast<unsigned long long>(stats.queries_served),
      static_cast<unsigned long long>(stats.queries_rejected),
      static_cast<unsigned long long>(stats.queries_failed),
      static_cast<unsigned long long>(stats.queries_shed_deadline),
      static_cast<unsigned long long>(stats.queries_shed_overload),
      static_cast<unsigned long long>(stats.queries_degraded),
      OverloadStateName(stats.overload_state), stats.queue_depth,
      stats.num_workers, stats.graphs_loaded, stats.latency_p50_seconds,
      stats.latency_p95_seconds, stats.latency_mean_seconds,
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.insertions),
      static_cast<unsigned long long>(stats.cache.degraded_insertions),
      static_cast<unsigned long long>(stats.cache.admission_skipped),
      static_cast<unsigned long long>(stats.cache.admission_rejected_by_policy),
      static_cast<unsigned long long>(stats.cache.evictions),
      static_cast<unsigned long long>(stats.cache.invalidated_by_delta),
      static_cast<unsigned long long>(stats.cache.rekeyed_by_delta),
      stats.cache.entries, stats.cache.memory_bytes, stats.cache.HitRate(),
      static_cast<unsigned long long>(stats.mutations.batches),
      static_cast<unsigned long long>(stats.mutations.edges_added),
      static_cast<unsigned long long>(stats.mutations.edges_removed),
      static_cast<unsigned long long>(stats.mutations.edges_flipped),
      static_cast<unsigned long long>(stats.mutations.noops),
      static_cast<unsigned long long>(stats.mutations.compactions),
      static_cast<unsigned long long>(stats.mutations.core_affected),
      static_cast<unsigned long long>(stats.mutations.core_visited),
      static_cast<unsigned long long>(stats.transport.connections_accepted),
      static_cast<unsigned long long>(stats.transport.connections_rejected),
      static_cast<long long>(stats.transport.connections_active),
      static_cast<unsigned long long>(stats.transport.frames_in),
      static_cast<unsigned long long>(stats.transport.frames_out),
      static_cast<unsigned long long>(stats.transport.queries_shed_quota),
      static_cast<unsigned long long>(stats.transport.submit_retries));
  std::string out = buffer;
  if (!deterministic) {
    // Volatile by definition; deterministic output must stay diffable.
    std::snprintf(buffer, sizeof(buffer), ",\"uptime_seconds\":%.3f",
                  stats.uptime_seconds);
    out += buffer;
  }
  out += ",\"workers\":[";
  for (size_t i = 0; i < stats.workers.size(); ++i) {
    const WorkerStats& worker = stats.workers[i];
    std::snprintf(
        buffer, sizeof(buffer),
        "%s{\"queries\":%llu,\"mdc_arena_hwm_bytes\":%llu,"
        "\"dcc_arena_hwm_bytes\":%llu,\"steals\":%llu,\"splits\":%llu,"
        "\"incumbent_updates\":%llu}",
        i == 0 ? "" : ",", static_cast<unsigned long long>(worker.queries),
        static_cast<unsigned long long>(worker.mdc_arena_hwm_bytes),
        static_cast<unsigned long long>(worker.dcc_arena_hwm_bytes),
        static_cast<unsigned long long>(worker.steals),
        static_cast<unsigned long long>(worker.splits),
        static_cast<unsigned long long>(worker.incumbent_updates));
    out += buffer;
  }
  out += "]}";
  return out;
}

}  // namespace mbc
