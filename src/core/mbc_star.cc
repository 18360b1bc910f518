// Copyright 2026 The balanced-clique Authors.
//
// The MBC* engine (Algorithm 2) behind both entry points. One preamble
// (reduction, incumbent seeding, |C*|-core, degeneracy order), one ego
// build-and-prune, one local-to-input id mapping and one incumbent serve
// two drivers: MaxBalancedCliqueStar walks the egos in reverse degeneracy
// order on the calling thread, and ParallelMaxBalancedCliqueStar schedules
// them over per-worker work-stealing deques.
//
// The drivers differ in one semantic switch, the incumbent's `tie` flag.
// MBC* keeps a clique only when it is strictly larger than the incumbent,
// so every bound prunes at the incumbent's size. The parallel entry also
// keeps an equal-size, canonically smaller clique, so every bound prunes
// one below it (ties must survive to be offered) and the returned witness
// is the lex-min optimum whatever the schedule.
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/mbc_heu.h"
#include "src/core/mdc_solver.h"
#include "src/core/reductions.h"
#include "src/core/work_steal.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

/// Ego networks with at least this many pruned candidates are split into
/// per-branch subtasks (ParallelMbcOptions::split_threshold = 0). Below
/// it, the split bookkeeping (snapshot clones, task allocation) costs more
/// than the imbalance it cures.
constexpr uint32_t kDefaultSplitThreshold = 96;

/// Canonical total order on canonicalized cliques: lexicographic on the
/// left side, then the right. Distinct cliques never compare equal, so the
/// tie-break among equal-size witnesses is schedule-independent.
bool CanonicalLess(const BalancedClique& a, const BalancedClique& b) {
  if (a.left != b.left) return a.left < b.left;
  return a.right < b.right;
}

// The incumbent of one run. `best_size` is the atomic pruning bound every
// ego search and MdcSolver node reads; the witness itself is guarded by
// the mutex. In tie mode it is replaced by a strictly larger clique or an
// equal-size, canonically smaller one, so the final witness is the lex-min
// maximum clique no matter in which order the offers arrived.
struct GlobalIncumbent {
  explicit GlobalIncumbent(bool tie_mode) : tie(tie_mode) {}

  /// The clique size an ego must still be able to reach to be searched:
  /// one above the bound in strict mode, the bound itself in tie mode.
  size_t Need() const {
    return best_size.load(std::memory_order_relaxed) + (tie ? 0 : 1);
  }

  /// In tie mode `clique` must be canonicalized. Cheap relaxed reject for
  /// offers that cannot matter; the mutex settles the rest.
  void Offer(BalancedClique&& clique) {
    const size_t sz = clique.size();
    if (sz < best_size.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (sz > best.size() ||
        (tie && sz == best.size() && CanonicalLess(clique, best))) {
      best = std::move(clique);
      updates.fetch_add(1, std::memory_order_relaxed);
      // CAS-max publish: the atomic only ever grows, so a stale larger
      // value from a racing publisher is kept.
      size_t cur = best_size.load(std::memory_order_relaxed);
      while (cur < sz && !best_size.compare_exchange_weak(
                             cur, sz, std::memory_order_relaxed)) {
      }
    }
  }

  const bool tie;
  std::atomic<size_t> best_size{0};
  std::mutex mutex;
  BalancedClique best;  // input-graph ids
  std::atomic<uint64_t> updates{0};
};

/// Turns an MDC solution (local ids of `net`) into a canonical clique in
/// input-graph ids.
BalancedClique ToInputClique(const DichromaticNetwork& net,
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

/// What every driver searches: the |C*|-core of the reduced graph with its
/// degeneracy order and the map back to input-graph ids.
struct Preamble {
  SignedGraph work;
  std::vector<VertexId> to_input;  // work id -> input id
  DegeneracyResult degeneracy;     // empty when `work` is
  size_t heuristic_size = 0;
  double reduction_seconds = 0.0;
  double heuristic_seconds = 0.0;
  Timer search;  // started at Line 3
};

/// Algorithm 2, Lines 1-4. Seeds `incumbent` with the caller's clique and
/// then MBC-Heu (verbatim in strict mode, canonicalized in tie mode, where
/// the tie-break compares canonical forms), floors its bound at 2τ - 1
/// (any clique satisfying τ ≥ 1 has at least 2τ vertices), and peels the
/// reduced graph to its (Need() - 1)-core. Returns false when
/// `existence_only` is already answered by the seeds.
bool RunPreamble(const SignedGraph& graph, uint32_t tau,
                 const MbcStarOptions& options, ExecutionContext* exec,
                 GlobalIncumbent* incumbent, Preamble* out) {
  auto seed = [incumbent](BalancedClique clique) {
    if (incumbent->tie) clique.Canonicalize();
    incumbent->Offer(std::move(clique));
  };
  if (options.initial_clique != nullptr && !options.initial_clique->empty()) {
    MBC_CHECK(options.initial_clique->SatisfiesThreshold(tau))
        << "initial clique violates the polarization constraint";
    seed(*options.initial_clique);
  }

  // Line 1: graph reductions.
  Timer phase;
  ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau);
  if (options.apply_edge_reduction) {
    reduced.graph = EdgeReduction(reduced.graph, tau, exec);
  }
  out->reduction_seconds = phase.ElapsedSeconds();

  // Line 2: heuristic lower bound.
  phase.Restart();
  if (options.run_heuristic && reduced.graph.NumVertices() > 0) {
    BalancedClique heu = MbcHeuristic(reduced.graph, tau, exec);
    out->heuristic_size = heu.size();
    heu.MapToOriginal(reduced.to_original);
    seed(std::move(heu));
  }
  out->heuristic_seconds = phase.ElapsedSeconds();

  if (options.existence_only && !incumbent->best.empty()) return false;
  if (tau >= 1 && incumbent->best_size < 2 * size_t{tau} - 1) {
    incumbent->best_size = 2 * size_t{tau} - 1;
  }

  // Line 3: reduce to the |C*|-core (signs ignored) and renumber.
  out->search.Restart();
  const size_t need = incumbent->Need();
  const std::vector<uint8_t> core_alive = KCoreMask(
      reduced.graph, need > 0 ? static_cast<uint32_t>(need - 1) : 0);
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < reduced.graph.NumVertices(); ++v) {
    if (core_alive[v]) keep.push_back(v);
  }
  SignedGraph::InducedResult cored = reduced.graph.InducedSubgraph(keep);
  out->work = std::move(cored.graph);
  out->to_input.resize(out->work.NumVertices());
  for (VertexId v = 0; v < out->work.NumVertices(); ++v) {
    out->to_input[v] = reduced.to_original[cored.to_original[v]];
  }

  // Line 4: degeneracy ordering.
  if (out->work.NumVertices() > 0) {
    out->degeneracy = DegeneracyDecompose(out->work);
  }
  return true;
}

// One thread's ego-network state for Lines 6-8 up to MDC: the builder, the
// network and the pruning scratch, reused across every ego it visits so
// they grow to a high-water size once and then stop touching the heap.
class EgoSearch {
 public:
  EgoSearch(const Preamble& pre, const GlobalIncumbent& incumbent,
            const MdcOptions& prune)
      : pre_(pre), incumbent_(incumbent), prune_(prune), builder_(pre.work) {}

  /// Builds g_u over u's higher-ranked neighbours and prunes it against
  /// the incumbent. Returns true when g_u may still hold a clique of
  /// Need() vertices; candidates() then holds its survivors other than u
  /// (local vertex 0).
  bool BuildAndPrune(VertexId u) {
    // Cheap pre-check: g_u has 1 + (higher-ranked neighbours) vertices;
    // skip it before paying for the dense-bitset construction.
    const std::vector<uint32_t>& rank = pre_.degeneracy.rank;
    uint32_t higher = 0;
    for (VertexId v : pre_.work.PositiveNeighbors(u)) {
      higher += rank[v] > rank[u];
    }
    for (VertexId v : pre_.work.NegativeNeighbors(u)) {
      higher += rank[v] > rank[u];
    }
    if (static_cast<size_t>(higher) + 1 < incumbent_.Need()) return false;

    builder_.BuildInto(u, rank.data(), nullptr, &net_);
    ++networks_built_;
    // Re-read: another worker may have raised the bound meanwhile.
    const size_t need = incumbent_.Need();
    const uint32_t k = net_.graph.NumVertices();
    if (k < need) return false;

    // Line 7: every member of a clique of `need` vertices has `need - 1`
    // neighbours in it (labels ignored).
    const uint32_t degree =
        need > 0 ? static_cast<uint32_t>(need - 1) : 0;
    prune_arena_.BindNetwork(k);
    // ReshapeUninit + SetAll: the full overwrite makes the cleared words
    // of a plain Reshape dead stores.
    alive_.ReshapeUninit(k);
    alive_.SetAll();
    alive_count_ = k;
    if (prune_.use_core_pruning) {
      KCoreWithinInPlace(net_.graph, &alive_, degree,
                         &prune_arena_.pending(), &alive_count_);
      if (!alive_.Test(0) || alive_count_ < need) return false;
    }
    // Line 8: coloring-based pruning.
    if (prune_.use_coloring_bound && need > 0 &&
        ColoringBoundWithin(net_.graph, alive_, degree, &prune_arena_) <=
            degree) {
      return false;
    }
    candidates_.CopyFrom(alive_);
    candidates_.Reset(0);
    return true;
  }

  const DichromaticNetwork& net() const { return net_; }
  /// Hands the network over (a split shares it between subtasks); the
  /// next BuildAndPrune refills a fresh one.
  DichromaticNetwork TakeNet() { return std::move(net_); }
  const Bitset& candidates() const { return candidates_; }
  size_t candidate_count() const { return alive_count_ - 1; }
  uint64_t networks_built() const { return networks_built_; }

 private:
  const Preamble& pre_;
  const GlobalIncumbent& incumbent_;
  const MdcOptions prune_;
  DichromaticNetworkBuilder builder_;
  DichromaticNetwork net_;
  SearchArena prune_arena_;  // outer k-core / coloring-bound scratch
  Bitset alive_;
  Bitset candidates_;
  size_t alive_count_ = 0;
  uint64_t networks_built_ = 0;
};

/// MBC*'s driver (Line 5): the egos in reverse degeneracy order on the
/// calling thread, each solved in place with the strict kernel.
void SearchSequential(const Preamble& pre, uint32_t tau,
                      const MbcStarOptions& options, ExecutionContext* exec,
                      GlobalIncumbent* incumbent, MbcStarStats* stats) {
  const MdcOptions prune{options.use_core_pruning,
                         options.use_coloring_bound};
  MdcSolver local_solver;
  MdcSolver& solver = options.shared_solver != nullptr
                          ? *options.shared_solver
                          : local_solver;
  solver.SetOptions(prune);
  solver.SetExecution(exec);
  EgoSearch ego(pre, *incumbent, prune);
  const std::vector<uint32_t> seed{0};  // u is local vertex 0
  std::vector<uint32_t> solution;
  double sr1_sum = 0.0;
  double sr2_sum = 0.0;
  uint64_t sr_count = 0;

  for (auto it = pre.degeneracy.order.rbegin();
       it != pre.degeneracy.order.rend(); ++it) {
    if (exec->Probe()) break;
    if (!ego.BuildAndPrune(*it)) continue;
    const DichromaticNetwork& net = ego.net();

    ++stats->num_mdc_instances;
    if (net.ego_edges > 0) {
      const uint64_t core_edges = net.graph.EdgesWithin(ego.candidates());
      sr1_sum += 1.0 - static_cast<double>(net.dichromatic_edges) /
                           static_cast<double>(net.ego_edges);
      sr2_sum += 1.0 - static_cast<double>(core_edges) /
                           static_cast<double>(net.ego_edges);
      ++sr_count;
    }

    solver.Rebind(net.graph);
    const bool improved = solver.Solve(
        seed, ego.candidates(), static_cast<int32_t>(tau) - 1,
        static_cast<int32_t>(tau), incumbent->best_size, &solution,
        options.existence_only);
    stats->mdc_branches += solver.branches();
    if (improved) {
      incumbent->Offer(ToInputClique(net, solution, pre.to_input));
      if (options.existence_only) break;
    }
  }
  stats->num_networks_built = ego.networks_built();
  if (sr_count > 0) {
    stats->avg_sr1 = sr1_sum / static_cast<double>(sr_count);
    stats->avg_sr2 = sr2_sum / static_cast<double>(sr_count);
  }
}

/// One unit of schedulable work: either a whole ego network (build, prune,
/// maybe split, else solve; `net` is null) or one top-level MDC branch of
/// a split one.
struct TaskNode {
  VertexId ego = 0;  // whole ego: the ego vertex (work-graph id)
  // Branch fields. The split network is shared by its subtasks; the last
  // finishing one releases it.
  std::shared_ptr<const DichromaticNetwork> net;
  uint32_t branch_vertex = 0;  // local id within *net
  int32_t tau_l = 0;           // residual thresholds after seeding {0, v}
  int32_t tau_r = 0;
  /// The branching frontier cloned from the splitter's SearchArena: `cand`
  /// is this subtask's candidate set (adj(v) ∩ remaining at split time);
  /// `pool`/`remaining` carry the split root's state for context.
  SearchArena::FrameSnapshot frame;
};

struct Scheduler {
  std::vector<std::unique_ptr<WorkStealingDeque<TaskNode*>>> deques;
  /// Tasks pushed but not yet finished executing. Zero means no task
  /// exists anywhere and none can appear — the termination condition.
  std::atomic<size_t> outstanding{0};
  std::atomic<bool> stop{false};
};

// One work-stealing worker: an EgoSearch, a tie-preserving MdcSolver wired
// to the shared incumbent, and the scheduler loop. All scratch is reused
// across every task this worker executes.
class Worker {
 public:
  Worker(uint32_t id, uint32_t num_threads, const Preamble& pre, uint32_t tau,
         uint32_t split_threshold, ExecutionContext* exec,
         GlobalIncumbent* global, Scheduler* sched)
      : id_(id),
        num_threads_(num_threads),
        to_input_(pre.to_input),
        tau_(tau),
        split_threshold_(split_threshold),
        exec_(exec),
        global_(global),
        sched_(sched),
        ego_(pre, *global, MdcOptions{}) {
    solver_.SetExecution(exec_);
    // One offer closure for the worker's lifetime; `cur_net_` re-points it
    // at whichever network the solver is currently searching.
    solver_.SetSharedIncumbent(
        &global_->best_size,
        [this](const std::vector<uint32_t>& local) { OfferLocal(local); });
  }
  // The solver's offer closure holds `this`.
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Run() {
    WorkStealingDeque<TaskNode*>& own = *sched_->deques[id_];
    while (!sched_->stop.load(std::memory_order_relaxed)) {
      TaskNode* node = nullptr;
      if (!own.Pop(&node)) {
        node = StealOne();
        if (node == nullptr) {
          if (sched_->outstanding.load(std::memory_order_acquire) == 0) break;
          if (exec_->Probe()) {
            sched_->stop.store(true, std::memory_order_relaxed);
            break;
          }
          std::this_thread::yield();
          continue;
        }
      }
      if (node->net == nullptr) {
        RunEgo(node->ego);
      } else {
        RunSub(*node);
      }
      delete node;
      sched_->outstanding.fetch_sub(1, std::memory_order_release);
      // One probe per task keeps cancellation latency bounded by a single
      // (sub)search's checkpoint stride.
      if (exec_->Probe()) {
        sched_->stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
  }

  /// Adds this worker's counters to `result` (after the worker stopped).
  void AddCounters(ParallelMbcResult* result) const {
    result->num_networks_built += ego_.networks_built();
    result->num_mdc_instances += mdc_instances_;
    result->num_steals += steals_;
    result->num_splits += splits_;
  }

 private:
  TaskNode* StealOne() {
    for (uint32_t i = 1; i < num_threads_; ++i) {
      TaskNode* node = nullptr;
      if (sched_->deques[(id_ + i) % num_threads_]->Steal(&node)) {
        ++steals_;
        return node;
      }
    }
    return nullptr;
  }

  /// Offers a solver clique (local ids of *cur_net_) to the incumbent.
  void OfferLocal(const std::vector<uint32_t>& local) {
    global_->Offer(ToInputClique(*cur_net_, local, to_input_));
  }

  void RunEgo(VertexId u) {
    if (!ego_.BuildAndPrune(u)) return;
    const size_t cand_count = ego_.candidate_count();
    if (cand_count >= split_threshold_ && cand_count >= 2) {
      SplitEgo(cand_count);
      return;
    }
    cur_net_ = &ego_.net();
    solver_.Rebind(cur_net_->graph);
    ++mdc_instances_;
    // Results flow through the offer callback; the return value and
    // `solution_` are not consulted (tie mode).
    solver_.Solve(seed_one_, ego_.candidates(),
                  static_cast<int32_t>(tau_) - 1, static_cast<int32_t>(tau_),
                  global_->best_size, &solution_);
  }

  /// Splits the (already pruned) ego network at the top-level MDC
  /// branching frontier: one subtask per branchable root candidate, each
  /// carrying its candidate set cloned out of a SearchArena frame
  /// snapshot. Enumeration is in ascending local id; tie-preserving search
  /// makes any complete branch partition equivalent, so no min-degree
  /// replication is needed for determinism.
  void SplitEgo(size_t cand_count) {
    auto net = std::make_shared<const DichromaticNetwork>(ego_.TakeNet());
    const DichromaticGraph& g = net->graph;
    const Bitset& candidates = ego_.candidates();

    split_arena_.BindNetwork(g.NumVertices());
    SearchArena::Frame& root = split_arena_.FrameAt(0);
    root.cand.CopyFrom(candidates);
    const int32_t tau_l0 = static_cast<int32_t>(tau_) - 1;
    const int32_t tau_r0 = static_cast<int32_t>(tau_);

    // The root branching pool, side-restricted exactly as MdcSolver
    // restricts it: once a side's quota is met, only the other side's
    // vertices can make a candidate clique feasible... unless both quotas
    // are met, in which case every candidate branches.
    root.pool.CopyFrom(candidates);
    if (tau_l0 > 0 && tau_r0 <= 0) {
      root.pool &= g.LeftMask();
    } else if (tau_l0 <= 0 && tau_r0 > 0) {
      root.pool.AndNot(g.LeftMask());
    }
    root.remaining.CopyFrom(candidates);

    // The split skips MDC's root-node record; when {u} alone is feasible
    // (tau = 0) offer it so the root clique is not lost.
    if (tau_l0 <= 0 && tau_r0 <= 0) {
      cur_net_ = net.get();
      OfferLocal(seed_one_);
    }

    std::vector<TaskNode*> subs;
    subs.reserve(cand_count);
    root.pool.ForEach([&](size_t v) {
      TaskNode* node = new TaskNode;
      node->net = net;
      node->branch_vertex = static_cast<uint32_t>(v);
      const bool v_left = g.IsLeft(static_cast<uint32_t>(v));
      node->tau_l = v_left ? tau_l0 - 1 : tau_l0;
      node->tau_r = v_left ? tau_r0 : tau_r0 - 1;
      // This branch's candidates: adj(v) ∩ remaining. Built in the arena
      // frame, then cloned out with the snapshot (the clone is what
      // crosses threads; the frame itself is worker-confined).
      root.cand.AssignAnd(g.AdjacencyOf(static_cast<uint32_t>(v)),
                          root.remaining);
      split_arena_.SnapshotFrame(0, &node->frame);
      subs.push_back(node);
      root.remaining.Reset(v);
    });

    ++splits_;
    // Publish: count first, then expose the tasks to thieves.
    sched_->outstanding.fetch_add(subs.size(), std::memory_order_release);
    WorkStealingDeque<TaskNode*>& own = *sched_->deques[id_];
    for (TaskNode* node : subs) own.Push(node);
  }

  void RunSub(const TaskNode& node) {
    // The subtree tops out at |{0, v}| + |cand|.
    if (2 + node.frame.cand.Count() < global_->Need()) return;

    cur_net_ = node.net.get();
    solver_.Rebind(cur_net_->graph);
    ++mdc_instances_;
    seed_two_[0] = 0;
    seed_two_[1] = node.branch_vertex;
    solver_.Solve(seed_two_, node.frame.cand, node.tau_l, node.tau_r,
                  global_->best_size, &solution_);
  }

  const uint32_t id_;
  const uint32_t num_threads_;
  const std::vector<VertexId>& to_input_;
  const uint32_t tau_;
  const uint32_t split_threshold_;
  ExecutionContext* const exec_;
  GlobalIncumbent* const global_;
  Scheduler* const sched_;

  EgoSearch ego_;
  MdcSolver solver_;
  SearchArena split_arena_;
  std::vector<uint32_t> solution_;
  const std::vector<uint32_t> seed_one_{0};
  std::vector<uint32_t> seed_two_{0, 0};
  /// The network whose local ids the solver's offers are in.
  const DichromaticNetwork* cur_net_ = nullptr;

  uint64_t mdc_instances_ = 0;
  uint64_t steals_ = 0;
  uint64_t splits_ = 0;
};

/// The parallel entry's driver: the egos seeded round-robin over one deque
/// per worker, searched tie-preserving, heavy ones split into per-branch
/// subtasks.
void SearchWorkStealing(const Preamble& pre, uint32_t tau, uint32_t threads,
                        uint32_t split_threshold, ExecutionContext* exec,
                        GlobalIncumbent* global, ParallelMbcResult* result) {
  Scheduler sched;
  const std::vector<VertexId>& order = pre.degeneracy.order;
  const size_t n = order.size();
  sched.deques.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    sched.deques.push_back(std::make_unique<WorkStealingDeque<TaskNode*>>());
  }
  // Seed the deques round-robin from the top of the degeneracy order down,
  // before any worker exists — single-threaded, so the owner-only Push
  // contract holds trivially. Pop is LIFO, so each worker visits its own
  // egos in *forward* degeneracy order; only thieves, which Steal from the
  // other end, take them in MBC*'s reverse order.
  sched.outstanding.store(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    TaskNode* node = new TaskNode;
    node->ego = order[n - 1 - i];
    sched.deques[i % threads]->Push(node);
  }

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.push_back(std::make_unique<Worker>(
        t, threads, pre, tau, split_threshold, exec, global, &sched));
  }
  if (threads == 1) {
    // No pool for a single worker: run the scheduler loop inline (the
    // service's intra-query-off clamp lands here; same answer, no spawn).
    workers[0]->Run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&workers, t] { workers[t]->Run(); });
    }
    for (std::thread& thread : pool) thread.join();
  }

  // An interrupted run may leave unexecuted tasks behind; reclaim them.
  for (auto& deque : sched.deques) {
    TaskNode* node = nullptr;
    while (deque->Pop(&node)) delete node;
  }
  for (const auto& worker : workers) worker->AddCounters(result);
}

}  // namespace

MbcStarResult MaxBalancedCliqueStar(const SignedGraph& graph, uint32_t tau,
                                    const MbcStarOptions& options) {
  MbcStarResult result;
  MbcStarStats& stats = result.stats;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  GlobalIncumbent incumbent(/*tie_mode=*/false);
  Preamble pre;
  const bool search =
      RunPreamble(graph, tau, options, exec, &incumbent, &pre);
  stats.heuristic_size = pre.heuristic_size;
  stats.reduction_seconds = pre.reduction_seconds;
  stats.heuristic_seconds = pre.heuristic_seconds;
  if (search) {
    if (pre.work.NumVertices() > 0) {
      SearchSequential(pre, tau, options, exec, &incumbent, &stats);
    }
    stats.search_seconds = pre.search.ElapsedSeconds();
  }

  stats.interrupt_reason = exec->reason();
  result.clique = std::move(incumbent.best);
  return result;
}

ParallelMbcResult ParallelMaxBalancedCliqueStar(
    const SignedGraph& graph, uint32_t tau,
    const ParallelMbcOptions& options) {
  ParallelMbcResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  MbcStarOptions seeding;
  seeding.run_heuristic = options.run_heuristic;
  seeding.initial_clique = options.initial_clique;
  GlobalIncumbent global(/*tie_mode=*/true);
  Preamble pre;
  RunPreamble(graph, tau, seeding, exec, &global, &pre);
  // The seeds are the baseline; count only what the search publishes.
  global.updates.store(0, std::memory_order_relaxed);

  // One clamp for every path: the empty-work case and the pool case report
  // the same number, computed the same way.
  uint32_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min<uint32_t>(threads,
                               std::max<uint32_t>(1, pre.work.NumVertices()));
  result.threads_used = threads;

  if (pre.work.NumVertices() > 0) {
    SearchWorkStealing(pre, tau, threads,
                       options.split_threshold > 0 ? options.split_threshold
                                                   : kDefaultSplitThreshold,
                       exec, &global, &result);
  }

  result.clique = std::move(global.best);
  result.num_incumbent_updates = global.updates.load(std::memory_order_relaxed);
  result.interrupt_reason = exec->reason();
  return result;
}

}  // namespace mbc
