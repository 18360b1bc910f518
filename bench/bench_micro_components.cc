// Copyright 2026 The balanced-clique Authors.
//
// Micro-benchmarks (google-benchmark) for the substrates that dominate
// MBC*'s cost profile: CSR construction, induced-subgraph copies,
// degeneracy peeling, dichromatic network extraction, (τ_L,τ_R)-core
// peeling, coloring bounds and the MDC solver on random dichromatic graphs.
//
// Besides the google-benchmark suite, the binary ends with a kernel
// report that runs the arena MDC kernel under both the scalar and the
// dispatched SIMD tables on identical instance families, counting
// wall-clock time, branches, true heap allocations (global operator new
// hooks) and a solution hash, and writes the machine-readable result to
// BENCH_kernel.json (docs/perf.md). The pre-arena kernel column was
// retired with the kernel itself once its differential gate had baked
// for a release.
//
//   MBC_BENCH_KERNEL_JSON=path  output path (default BENCH_kernel.json)
//   MBC_BENCH_STRICT=1          exit non-zero if the arena kernel performs
//                               any steady-state heap allocation, or if
//                               scalar/SIMD disagree on solutions or
//                               branch counts
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "src/common/memory.h"
#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_star.h"
#include "src/core/mdc_solver.h"
#include "src/core/reductions.h"
#include "src/datasets/generators.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"
#include "src/pf/pdecompose.h"

// ---------------------------------------------------------------------------
// Global allocation counters. Every path through operator new lands here,
// which is what lets the kernel report prove "zero allocations in steady
// state" rather than inferring it from the MemoryTracker's logical ledger.
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// new/delete pair; the pairing is correct (our operator new mallocs).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace mbc {
namespace {

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

SignedGraph MakeGraph(VertexId n, EdgeCount m, uint64_t seed = 7) {
  CommunityGraphOptions options;
  options.num_vertices = n;
  options.num_edges = m;
  options.num_communities = 8;
  options.negative_ratio = 0.3;
  options.seed = seed;
  return GenerateCommunitySignedGraph(options);
}

DichromaticGraph MakeDichromatic(uint32_t n, double density, uint64_t seed) {
  Rng rng(seed);
  DichromaticGraph graph(n);
  for (uint32_t v = 0; v < n; ++v) {
    graph.SetSide(v, rng.NextBernoulli(0.5) ? Side::kLeft : Side::kRight);
  }
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      if (rng.NextBernoulli(density)) graph.AddEdge(a, b);
    }
  }
  return graph;
}

void BM_CsrBuild(benchmark::State& state) {
  const auto edges = static_cast<EdgeCount>(state.range(0));
  for (auto _ : state) {
    SignedGraph graph = MakeGraph(static_cast<VertexId>(edges / 8), edges);
    benchmark::DoNotOptimize(graph.NumEdges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges));
}
BENCHMARK(BM_CsrBuild)->Arg(10000)->Arg(100000);

void BM_DegeneracyDecompose(benchmark::State& state) {
  const SignedGraph graph =
      MakeGraph(static_cast<VertexId>(state.range(0)),
                static_cast<EdgeCount>(state.range(0)) * 8);
  for (auto _ : state) {
    DegeneracyResult result = DegeneracyDecompose(graph);
    benchmark::DoNotOptimize(result.degeneracy);
  }
}
BENCHMARK(BM_DegeneracyDecompose)->Arg(10000)->Arg(50000);

void BM_PDecompose(benchmark::State& state) {
  const SignedGraph graph =
      MakeGraph(static_cast<VertexId>(state.range(0)),
                static_cast<EdgeCount>(state.range(0)) * 8);
  for (auto _ : state) {
    PolarDecomposition result = PDecompose(graph);
    benchmark::DoNotOptimize(result.max_polar_core);
  }
}
BENCHMARK(BM_PDecompose)->Arg(10000)->Arg(50000);

void BM_VertexReduction(benchmark::State& state) {
  const SignedGraph graph = MakeGraph(20000, 160000);
  for (auto _ : state) {
    auto mask = VertexReductionMask(graph, 3);
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_VertexReduction);

// The subgraph copy after BM_VertexReduction's mask. Arg 0 keeps the
// survivors ascending, as ApplyVertexReduction and the |C*|-core do (rows
// come out sorted); arg 1 shuffles them, so every row is sorted on its own.
void BM_InducedSubgraph(benchmark::State& state) {
  const SignedGraph graph = MakeGraph(20000, 160000);
  const std::vector<uint8_t> mask = VertexReductionMask(graph, 3);
  std::vector<VertexId> selection;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (mask[v]) selection.push_back(v);
  }
  if (state.range(0) == 1) {
    Rng rng(11);
    std::shuffle(selection.begin(), selection.end(), rng);
  }
  for (auto _ : state) {
    SignedGraph::InducedResult induced = graph.InducedSubgraph(selection);
    benchmark::DoNotOptimize(induced.graph.NumEdges());
  }
  state.SetLabel(state.range(0) == 1 ? "shuffled" : "ascending");
}
BENCHMARK(BM_InducedSubgraph)->Arg(0)->Arg(1);

void BM_EdgeReduction(benchmark::State& state) {
  const SignedGraph graph = MakeGraph(5000, 40000);
  for (auto _ : state) {
    SignedGraph reduced = EdgeReduction(graph, 3);
    benchmark::DoNotOptimize(reduced.NumEdges());
  }
}
BENCHMARK(BM_EdgeReduction);

void BM_DichromaticNetworkBuild(benchmark::State& state) {
  const SignedGraph graph = MakeGraph(20000, 300000);
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  DichromaticNetworkBuilder builder(graph);
  VertexId u = 0;
  for (auto _ : state) {
    DichromaticNetwork net =
        builder.Build(degeneracy.order[u % graph.NumVertices()],
                      degeneracy.rank.data());
    benchmark::DoNotOptimize(net.graph.NumVertices());
    ++u;
  }
}
BENCHMARK(BM_DichromaticNetworkBuild);

// Same extraction through the clear-and-refill path: one network object,
// grown once, refilled per iteration. The gap to BM_DichromaticNetworkBuild
// is the construction overhead the arena call sites no longer pay.
void BM_DichromaticNetworkBuildInto(benchmark::State& state) {
  const SignedGraph graph = MakeGraph(20000, 300000);
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork net;
  VertexId u = 0;
  for (auto _ : state) {
    builder.BuildInto(degeneracy.order[u % graph.NumVertices()],
                      degeneracy.rank.data(), nullptr, &net);
    benchmark::DoNotOptimize(net.graph.NumVertices());
    ++u;
  }
}
BENCHMARK(BM_DichromaticNetworkBuildInto);

void BM_TwoSidedCore(benchmark::State& state) {
  const DichromaticGraph graph =
      MakeDichromatic(static_cast<uint32_t>(state.range(0)), 0.1, 3);
  const Bitset all = graph.AllVertices();
  for (auto _ : state) {
    Bitset core = TwoSidedCoreWithin(graph, all, 3, 3);
    benchmark::DoNotOptimize(core.Count());
  }
}
BENCHMARK(BM_TwoSidedCore)->Arg(128)->Arg(512);

void BM_ColoringBound(benchmark::State& state) {
  const DichromaticGraph graph =
      MakeDichromatic(static_cast<uint32_t>(state.range(0)), 0.2, 5);
  const Bitset all = graph.AllVertices();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColoringBoundWithin(graph, all));
  }
}
BENCHMARK(BM_ColoringBound)->Arg(128)->Arg(512);

// The MDC kernel with one solver reused across iterations (the production
// calling convention); reports allocations and branches per iteration.
void BM_MdcSolveArena(benchmark::State& state) {
  const DichromaticGraph graph =
      MakeDichromatic(static_cast<uint32_t>(state.range(0)), 0.25, 11);
  Bitset candidates = graph.AdjacencyOf(0);
  MdcSolver solver(graph);
  std::vector<uint32_t> best;
  const std::vector<uint32_t> seed{0};
  solver.Solve(seed, candidates, 1, 2, 0, &best);  // warm-up
  const uint64_t allocs_before = AllocCount();
  uint64_t branches = 0;
  for (auto _ : state) {
    solver.Solve(seed, candidates, 1, 2, 0, &best);
    branches += solver.branches();
    benchmark::DoNotOptimize(best.size());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(AllocCount() - allocs_before) / iters);
  state.counters["branches"] =
      benchmark::Counter(static_cast<double>(branches) / iters);
}
BENCHMARK(BM_MdcSolveArena)->Arg(64)->Arg(128);

// Arg 0: a community graph with no hub. Arg 1: a hub-heavy BSCL graph
// (the servicebench family at a quarter of its size), whose hub anchor has
// a dichromatic network of about ten thousand members.
void BM_MbcHeuristic(benchmark::State& state) {
  SignedGraph graph;
  if (state.range(0) == 0) {
    graph = MakeGraph(20000, 200000);
    state.SetLabel("random");
  } else {
    BsclOptions options;
    options.num_vertices = 50000;
    options.num_edges = 300000;
    options.seed = 7;
    graph = GenerateBsclSignedGraph(options);
    state.SetLabel("bscl_hub");
  }
  for (auto _ : state) {
    BalancedClique clique = MbcHeuristic(graph, 2);
    benchmark::DoNotOptimize(clique.size());
  }
}
BENCHMARK(BM_MbcHeuristic)->Arg(0)->Arg(1);

void BM_MbcStarEndToEnd(benchmark::State& state) {
  SignedGraph base = MakeGraph(10000, 80000);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 5}}, 3);
  for (auto _ : state) {
    MbcStarResult result = MaxBalancedCliqueStar(graph, 3);
    benchmark::DoNotOptimize(result.clique.size());
  }
}
BENCHMARK(BM_MbcStarEndToEnd);

// ---------------------------------------------------------------------------
// Kernel report: the arena kernel under the scalar and the dispatched SIMD
// tables on a fixed instance pool of three families, with a fixed number of
// steady-state solves per family per configuration, written to
// BENCH_kernel.json. The "random" family is the pre-SIMD report's pool,
// kept unchanged so successive reports stay comparable; "planted_clique"
// and "high_degeneracy" exercise the dive-collapsing shortcut and the
// multi-word bitsets where the vector kernels actually pay.
// ---------------------------------------------------------------------------

struct KernelInstance {
  uint32_t n;
  double density;
  uint64_t seed;
  DichromaticGraph graph;
  Bitset candidates;
};

struct KernelFamily {
  const char* name;
  std::vector<KernelInstance> instances;
};

struct KernelMeasurement {
  double seconds = 0.0;
  uint64_t branches = 0;
  uint64_t solves = 0;
  uint64_t steady_allocs = 0;   // operator-new calls across all solves
  int64_t tracker_delta = 0;    // MemoryTracker byte drift across solves
  size_t best_size = 0;         // checksum: total clique vertices found
  uint64_t solution_hash = 0;   // FNV-1a over every solution's vertex ids

  void Accumulate(const KernelMeasurement& other) {
    seconds += other.seconds;
    branches += other.branches;
    solves += other.solves;
    steady_allocs += other.steady_allocs;
    tracker_delta += other.tracker_delta;
    best_size += other.best_size;
    solution_hash ^= other.solution_hash;
  }
};

constexpr int kSteadySolves = 200;
// Each configuration's timed block runs kReps times; the reported seconds
// are the fastest repetition (standard noise rejection — the pool is
// deterministic, so repetitions only differ by scheduling jitter).
constexpr int kReps = 3;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  return (hash ^ value) * 0x100000001b3ull;
}

KernelMeasurement MeasureKernel(std::vector<KernelInstance>& instances,
                                const char* isa) {
  if (!simd::SetActive(isa)) {
    std::fprintf(stderr, "cannot activate SIMD kernels '%s'\n", isa);
    std::exit(1);
  }
  KernelMeasurement m;
  m.solution_hash = 0xcbf29ce484222325ull;
  MdcSolver solver;
  std::vector<uint32_t> best;
  const std::vector<uint32_t> seed{0};
  // Warm-up: two passes over the pool. The first grows every buffer
  // (arena frames, result vectors) to its high-water size; the second lets
  // the arena's MemoryTracker account settle (it is booked at BindNetwork,
  // so growth during a solve is only recorded at the next bind).
  for (int pass = 0; pass < 2; ++pass) {
    for (KernelInstance& inst : instances) {
      solver.Rebind(inst.graph);
      solver.Solve(seed, inst.candidates, 1, 2, 0, &best);
    }
  }
  for (int rep = 0; rep < kReps; ++rep) {
    // Stats (branches, hashes, allocations) are recorded on the first
    // repetition only — the workload is deterministic, so later reps can
    // contribute nothing but a cleaner timing sample.
    const bool record = rep == 0;
    const uint64_t allocs_before = AllocCount();
    const int64_t tracker_before =
        static_cast<int64_t>(MemoryTracker::Global().current_bytes());
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kSteadySolves; ++round) {
      KernelInstance& inst = instances[static_cast<size_t>(round) %
                                       instances.size()];
      solver.Rebind(inst.graph);
      best.clear();
      const bool found = solver.Solve(seed, inst.candidates, 1, 2, 0, &best);
      if (!record) continue;
      if (found) m.best_size += best.size();
      // Hash the exact solution — the scalar/SIMD gate requires
      // byte-identical cliques, not merely equal sizes.
      m.solution_hash = FnvMix(m.solution_hash, best.size());
      for (uint32_t v : best) m.solution_hash = FnvMix(m.solution_hash, v);
      m.branches += solver.branches();
      ++m.solves;
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < m.seconds) m.seconds = seconds;
    if (record) {
      m.steady_allocs = AllocCount() - allocs_before;
      m.tracker_delta =
          static_cast<int64_t>(MemoryTracker::Global().current_bytes()) -
          tracker_before;
    }
  }
  return m;
}

void AppendKernelJson(std::string* out, const char* indent, const char* name,
                      const KernelMeasurement& m) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "%s\"%s\": {\n"
      "%s  \"seconds\": %.6f,\n"
      "%s  \"solves\": %llu,\n"
      "%s  \"branches\": %llu,\n"
      "%s  \"branches_per_sec\": %.1f,\n"
      "%s  \"steady_state_allocs\": %llu,\n"
      "%s  \"allocs_per_solve\": %.2f,\n"
      "%s  \"tracker_delta_bytes\": %lld,\n"
      "%s  \"solution_checksum\": %zu,\n"
      "%s  \"solution_hash\": \"%016llx\"\n"
      "%s}",
      indent, name, indent, m.seconds, indent,
      static_cast<unsigned long long>(m.solves), indent,
      static_cast<unsigned long long>(m.branches), indent,
      m.seconds > 0 ? static_cast<double>(m.branches) / m.seconds : 0.0,
      indent, static_cast<unsigned long long>(m.steady_allocs), indent,
      static_cast<double>(m.steady_allocs) / static_cast<double>(m.solves),
      indent, static_cast<long long>(m.tracker_delta), indent, m.best_size,
      indent, static_cast<unsigned long long>(m.solution_hash), indent);
  *out += buf;
}

std::vector<KernelFamily> BuildKernelFamilies() {
  struct Spec {
    uint32_t n;
    double density;
    uint64_t seed;
    uint32_t plant;  // clique planted through vertex 0 (0 = none)
  };
  // "random" is the pre-SIMD report's pool, byte-for-byte; do not edit it,
  // successive BENCH_kernel.json files are compared on this family.
  const Spec random_specs[] = {
      {64, 0.25, 11, 0}, {64, 0.40, 12, 0}, {96, 0.30, 13, 0},
      {128, 0.25, 14, 0},
  };
  // Sparse backgrounds with a planted clique through vertex 0: the
  // instances where the clique shortcut collapses deep dives.
  const Spec planted_specs[] = {
      {96, 0.15, 21, 18}, {128, 0.12, 22, 22}, {160, 0.10, 23, 24},
  };
  // Dense, multi-word networks (3-4 words per row) — the high-degeneracy
  // regime where the dispatched vector kernels actually get full lanes.
  const Spec dense_specs[] = {
      {192, 0.45, 31, 0}, {256, 0.35, 32, 0},
  };

  auto build = [](const char* name, const Spec* specs, size_t count) {
    KernelFamily family{name, {}};
    family.instances.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const Spec& spec = specs[i];
      KernelInstance inst{spec.n, spec.density, spec.seed,
                          MakeDichromatic(spec.n, spec.density, spec.seed),
                          Bitset()};
      for (uint32_t a = 0; a < spec.plant; ++a) {
        for (uint32_t b = a + 1; b < spec.plant; ++b) {
          inst.graph.AddEdge(a, b);
        }
      }
      inst.candidates = inst.graph.AdjacencyOf(0);
      family.instances.push_back(std::move(inst));
    }
    return family;
  };
  std::vector<KernelFamily> families;
  families.push_back(build("random", random_specs, std::size(random_specs)));
  families.push_back(
      build("planted_clique", planted_specs, std::size(planted_specs)));
  families.push_back(
      build("high_degeneracy", dense_specs, std::size(dense_specs)));
  return families;
}

int RunKernelReport() {
  std::vector<KernelFamily> families = BuildKernelFamilies();
  // "auto" resolves MBC_SIMD / Best(); whatever it lands on is the table
  // the production binaries dispatch to, so that is the "simd" row.
  simd::SetActive("auto");
  const std::string best_isa = simd::ActiveName();

  // The two configurations isolate the SIMD dispatch contribution: both
  // run the arena kernel, one pinned to the scalar table and one on
  // whatever table `auto` dispatched to.
  struct Config {
    const char* name;
    const char* isa;
  };
  const Config configs[] = {
      {"arena_scalar", "scalar"},
      {"arena_simd", best_isa.c_str()},
  };
  constexpr size_t kNumConfigs = std::size(configs);

  // per_family[f][c]: family f measured under configuration c.
  std::vector<std::vector<KernelMeasurement>> per_family(families.size());
  KernelMeasurement totals[kNumConfigs];
  for (size_t f = 0; f < families.size(); ++f) {
    per_family[f].resize(kNumConfigs);
    for (size_t c = 0; c < kNumConfigs; ++c) {
      per_family[f][c] =
          MeasureKernel(families[f].instances, configs[c].isa);
      totals[c].Accumulate(per_family[f][c]);
    }
  }
  simd::SetActive("auto");

  const auto speedup = [](const KernelMeasurement& base,
                          const KernelMeasurement& fast) {
    return fast.seconds > 0 ? base.seconds / fast.seconds : 0.0;
  };
  const double total_speedup_simd = speedup(totals[0], totals[1]);

  bool zero_alloc = true;
  bool scalar_simd_identical = true;
  for (size_t f = 0; f < families.size(); ++f) {
    const KernelMeasurement& scalar = per_family[f][0];
    const KernelMeasurement& simd_m = per_family[f][1];
    zero_alloc = zero_alloc && scalar.steady_allocs == 0 &&
                 scalar.tracker_delta == 0 && simd_m.steady_allocs == 0 &&
                 simd_m.tracker_delta == 0;
    scalar_simd_identical = scalar_simd_identical &&
                            scalar.branches == simd_m.branches &&
                            scalar.solution_hash == simd_m.solution_hash;
  }

  std::string json = "{\n  \"schema\": \"mbc-kernel-bench-v3\",\n";
  json += "  \"simd_isa\": \"" + best_isa + "\",\n";
  json += "  \"steady_state_solves_per_family\": ";
  json += std::to_string(kSteadySolves);
  json += ",\n  \"families\": {\n";
  for (size_t f = 0; f < families.size(); ++f) {
    json += "    \"";
    json += families[f].name;
    json += "\": {\n      \"instances\": [\n";
    const std::vector<KernelInstance>& instances = families[f].instances;
    for (size_t i = 0; i < instances.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "        {\"n\": %u, \"density\": %.2f, \"seed\": %llu}%s\n",
                    instances[i].n, instances[i].density,
                    static_cast<unsigned long long>(instances[i].seed),
                    i + 1 < instances.size() ? "," : "");
      json += buf;
    }
    json += "      ],\n";
    for (size_t c = 0; c < kNumConfigs; ++c) {
      AppendKernelJson(&json, "      ", configs[c].name, per_family[f][c]);
      json += ",\n";
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "      \"speedup_simd_vs_scalar\": %.3f\n    }%s\n",
                  speedup(per_family[f][0], per_family[f][1]),
                  f + 1 < families.size() ? "," : "");
    json += buf;
  }
  json += "  },\n";
  for (size_t c = 0; c < kNumConfigs; ++c) {
    AppendKernelJson(&json, "  ", configs[c].name, totals[c]);
    json += ",\n";
  }
  char tail[256];
  std::snprintf(
      tail, sizeof(tail),
      "  \"speedup_simd_vs_scalar\": %.3f,\n"
      "  \"zero_alloc_steady_state\": %s,\n"
      "  \"scalar_simd_identical\": %s\n}\n",
      total_speedup_simd, zero_alloc ? "true" : "false",
      scalar_simd_identical ? "true" : "false");
  json += tail;

  const char* path_env = std::getenv("MBC_BENCH_KERNEL_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_kernel.json";
  std::ofstream out(path);
  out << json;
  out.close();

  std::printf("\nMDC kernel report (%d steady-state solves/family, isa=%s) "
              "-> %s\n",
              kSteadySolves, best_isa.c_str(), path.c_str());
  for (size_t c = 0; c < kNumConfigs; ++c) {
    std::printf("  %-12s %.4fs, %llu branches, %llu allocs\n",
                configs[c].name, totals[c].seconds,
                static_cast<unsigned long long>(totals[c].branches),
                static_cast<unsigned long long>(totals[c].steady_allocs));
  }
  std::printf("  arena_simd vs arena_scalar: %.2fx\n", total_speedup_simd);
  std::printf("  zero-alloc: %s, scalar==simd: %s\n",
              zero_alloc ? "yes" : "NO",
              scalar_simd_identical ? "yes" : "NO");

  const char* strict = std::getenv("MBC_BENCH_STRICT");
  if (strict != nullptr && strict[0] == '1') {
    if (!zero_alloc) {
      std::fprintf(stderr,
                   "FAIL: arena kernel allocated in steady state\n");
      return 1;
    }
    if (!scalar_simd_identical) {
      std::fprintf(stderr,
                   "FAIL: scalar and SIMD kernels diverge (solutions or "
                   "branch counts)\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace mbc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return mbc::RunKernelReport();
}
