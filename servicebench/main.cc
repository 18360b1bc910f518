// Copyright 2026 The balanced-clique Authors.
//
// servicebench: the cold-path service benchmark program.
//
//   servicebench --workload NAME --seed N --seconds S --trace 0|1
//                [--data-dir DIR]
//
// --trace 0 measures the end-to-end metrics: mbc_serve is started (and
// set up) five times, then the workload's closed-loop clients run over
// TCP for S seconds. --trace 1 runs the same socket phase for S/3 seconds
// (for the serving-layer counters) and then the traced in-process replay
// for the remaining 2S/3 (for the solver layers). Every answer is checked
// in both modes. The last stdout line is the JSON result; the line before
// it describes the host and the run.
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "servicebench/servicebench.h"
#include "src/common/simd.h"

namespace servicebench {
namespace {

/// Every run must end well inside the 180 s a run may take.
constexpr unsigned kWatchdogSeconds = 170;
constexpr int kSetupReps = 5;

void OnWatchdog(int) {
  const pid_t pid = g_server_pid.load();
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  static const char kMessage[] = "servicebench: watchdog expired\n";
  [[maybe_unused]] const ssize_t n =
      ::write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  ::_exit(3);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string data_dir = ".bench_build/servicebench-data";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0.0 && (args->trace == 0 || args->trace == 1);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered (name, value, unit) triples of the result line. A metric of a
/// layer the workload never calls reads 0 and is listed as not applicable.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit,
           bool applicable = true) {
    entries_.push_back({name, value, unit});
    if (!applicable) {
      not_applicable_ += (not_applicable_.empty() ? "" : ", ") +
                         JsonString(name);
    }
  }
  /// JSON list of the metrics added as not applicable.
  std::string NotApplicableJson() const { return "[" + not_applicable_ + "]"; }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out += (i == 0 ? "" : ", ") + JsonString(entries_[i].name) +
             ": {\"value\": " + value + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
  std::string not_applicable_;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Reference answers for every shape, solved on the unmutated graphs a
/// few at a time.
std::vector<Answer> SolveReferences(
    const Workload& workload, const std::map<std::string, GraphInput>& inputs) {
  std::vector<Answer> references(workload.shapes.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < references.size(); i = next++) {
        const Shape& shape = workload.shapes[i];
        references[i] = SolveDirect(shape, inputs.at(shape.graph).graph);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return references;
}

void AddEndToEnd(const SocketRunResult& run, Metrics* metrics) {
  metrics->Add("latency_p50_ms", Median(run.latency_ms), "ms");
  metrics->Add("latency_p90_ms", run.latency_p90_ms, "ms");
  metrics->Add("ops_per_s",
               Ratio(static_cast<double>(run.latency_ms.size()),
                     run.window_seconds),
               "1/s");
  metrics->Add("setup_s", Median(run.setup_seconds), "s");
  metrics->Add("peak_rss_mb", run.peak_rss_mb, "MB");
}

void AddPerLayer(const SocketRunResult& run, const ReplayResult& replay,
                 double error_rate, Metrics* metrics) {
  const auto called = [&](const char* layer) {
    return replay.seconds.count(layer) > 0;
  };
  const auto seconds = [&](const char* layer) {
    const auto it = replay.seconds.find(layer);
    return it == replay.seconds.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(replay.ops);
  const auto ms_per_op = [&](const char* layer) {
    return Ratio(seconds(layer) * 1e3, ops);
  };
  const auto share = [&](const char* layer) {
    return Ratio(seconds(layer), replay.traced_seconds);
  };
  // A layer's time per op and share, as `layer`_ms and `layer`_share.
  const auto add_time = [&](const std::string& layer) {
    const char* name = layer.c_str();
    metrics->Add(layer + "_ms", ms_per_op(name), "ms", called(name));
    metrics->Add(layer + "_share", share(name), "fraction", called(name));
  };
  const double star = static_cast<double>(replay.star_calls);
  const double pf = static_cast<double>(replay.pf_calls);
  const double parallel = static_cast<double>(replay.parallel_calls);
  const double built = static_cast<double>(replay.networks_built);
  const double batches = static_cast<double>(run.batches);
  const double lookups = static_cast<double>(run.cache_hits + run.cache_misses);

  add_time("reductions.vertex");
  add_time("mbc_heu.seed");
  add_time("cores.kcore");
  add_time("cores.degeneracy");
  add_time("network_builder.build");
  metrics->Add("network_builder.networks_built", Ratio(built, star),
               "count/op", star > 0);
  metrics->Add("network_builder.us_per_network",
               Ratio(seconds("network_builder.build") * 1e6, built), "us",
               built > 0);
  add_time("dichromatic_reductions.prune");
  metrics->Add("dichromatic_reductions.pass_ratio",
               Ratio(static_cast<double>(replay.mdc_instances), built),
               "fraction", built > 0);
  add_time("mdc_solver.search");
  metrics->Add("mdc_solver.branches",
               Ratio(static_cast<double>(replay.mdc_branches), star),
               "count/op", star > 0);
  metrics->Add("mdc_solver.branches_per_s",
               Ratio(static_cast<double>(replay.mdc_branches),
                     seconds("mdc_solver.search")),
               "1/s", seconds("mdc_solver.search") > 0);
  add_time("pf_star.solve");
  metrics->Add("pf_star.dcc_branches",
               Ratio(static_cast<double>(replay.dcc_branches), pf), "count/op",
               pf > 0);
  metrics->Add("pf_star.dcc_instances",
               Ratio(static_cast<double>(replay.dcc_instances), pf),
               "count/op", pf > 0);
  add_time("mbc_parallel.solve");
  metrics->Add("mbc_parallel.speedup",
               Ratio(replay.parallel_sequential_seconds,
                     replay.parallel_seconds),
               "x", parallel > 0);
  metrics->Add("mbc_parallel.steals",
               Ratio(static_cast<double>(replay.steals), parallel), "count/op",
               parallel > 0);
  metrics->Add("mbc_parallel.splits",
               Ratio(static_cast<double>(replay.splits), parallel), "count/op",
               parallel > 0);
  metrics->Add("jsonl.parse_us",
               Ratio(seconds("jsonl.parse") * 1e6,
                     static_cast<double>(replay.parse_calls)),
               "us");
  metrics->Add("jsonl.serialize_us",
               Ratio(seconds("jsonl.serialize") * 1e6,
                     static_cast<double>(replay.serialize_calls)),
               "us");
  metrics->Add("jsonl.codec_share",
               Ratio(seconds("jsonl.parse") + seconds("jsonl.serialize"),
                     replay.traced_seconds),
               "fraction");
  metrics->Add("transport.overhead_p50_ms", Median(run.transport_ms), "ms");
  metrics->Add("query_service.service_p50_ms", Median(run.service_ms), "ms");
  metrics->Add("query_service.self_share", share("query_service.self"),
               "fraction", called("query_service.self"));
  metrics->Add("result_cache.hit_rate",
               Ratio(static_cast<double>(run.cache_hits), lookups), "fraction",
               lookups > 0);
  metrics->Add("result_cache.invalidated_per_batch",
               Ratio(static_cast<double>(run.invalidated), batches), "count",
               batches > 0);
  metrics->Add("result_cache.rekeyed_per_batch",
               Ratio(static_cast<double>(run.rekeyed), batches), "count",
               batches > 0);
  metrics->Add("graph_store.mutate_p50_ms", Median(replay.mutate_ms), "ms",
               !replay.mutate_ms.empty());
  metrics->Add("graph_store.mutate_share", share("graph_store.mutate"),
               "fraction", called("graph_store.mutate"));
  metrics->Add("graph_store.load_ms", replay.load_ms, "ms");
  metrics->Add("delta_graph.core_visited_per_batch",
               Ratio(static_cast<double>(run.core_visited), batches), "count",
               batches > 0);
  metrics->Add("binary_io.mmap_ms", replay.mmap_ms, "ms");
  metrics->Add("worker.mdc_arena_high_water_bytes",
               static_cast<double>(run.mdc_arena_hwm_bytes), "bytes");
  metrics->Add("trace.overhead_ratio",
               Ratio(replay.star_traced_seconds, replay.star_direct_seconds),
               "x", star > 0);
  metrics->Add("trace.unattributed_share", share("trace.unattributed"),
               "fraction", called("trace.unattributed"));
  metrics->Add("trace.ops", ops, "count");
  metrics->Add("error_rate", error_rate, "fraction");
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr,
                 "usage: servicebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR]\n"
                 "workloads:%s\n",
                 names.c_str());
    return 2;
  }
  ::signal(SIGALRM, OnWatchdog);
  ::alarm(kWatchdogSeconds);
  const Workload& workload = *FindWorkload(args.workload);

  std::string error;
  std::map<std::string, GraphInput> inputs;
  ::mkdir(args.data_dir.c_str(), 0755);
  if (!PrepareInputs(workload, args.data_dir, &inputs, &error)) {
    std::fprintf(stderr, "servicebench: %s\n", error.c_str());
    return 1;
  }
  const std::vector<Answer> references = SolveReferences(workload, inputs);

  SocketRunResult run;
  ReplayResult replay;
  const double socket_seconds =
      args.trace == 0 ? args.seconds : args.seconds / 3.0;
  if (!RunSocket(workload, inputs, references, args.seed, socket_seconds,
                 args.trace == 0 ? kSetupReps : 1, SERVICEBENCH_MBC_SERVE, &run,
                 &error)) {
    std::fprintf(stderr, "servicebench: %s\n", error.c_str());
    return 1;
  }
  if (args.trace == 1) {
    RunReplay(workload, inputs, references, args.seed,
              args.seconds - socket_seconds, &replay);
  }

  const uint64_t attempted = run.attempted + replay.ops;
  const uint64_t failed = run.failed + replay.failed;
  const double error_rate =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  Metrics metrics;
  if (args.trace == 0) {
    AddEndToEnd(run, &metrics);
  } else {
    AddPerLayer(run, replay, error_rate, &metrics);
  }
  std::string errors;
  for (const std::vector<std::string>* list : {&run.errors, &replay.errors}) {
    for (const std::string& why : *list) {
      std::fprintf(stderr, "servicebench: FAILED %s\n", why.c_str());
      if (!errors.empty()) errors += ',';
      errors += JsonString(why);
    }
  }
  const int cpus = OnlineCpus();
  std::printf(
      "info {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"timed_ops\": %zu, \"setup_samples\": %zu, \"error_rate\": %.6g, "
      "\"nproc\": %d, \"cpu\": %s, \"build_type\": %s, \"simd\": %s, "
      "\"mbc_parallel_label\": \"%s\", \"not_applicable\": %s, "
      "\"replayed_misses\": %llu, \"replay_over_query\": %llu, "
      "\"self_clamped\": %s, \"errors\": [%s]}\n",
      JsonString(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace,
      run.latency_ms.size(), run.setup_seconds.size(),
      error_rate, cpus, JsonString(CpuModel()).c_str(),
      JsonString(SERVICEBENCH_BUILD_TYPE).c_str(),
      JsonString(mbc::simd::ActiveName()).c_str(),
      cpus < 4 ? "1-core" : "multi-core", metrics.NotApplicableJson().c_str(),
      static_cast<unsigned long long>(replay.replayed_misses),
      static_cast<unsigned long long>(replay.replay_over_query),
      replay.self_clamped ? "true" : "false", errors.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) { return servicebench::Run(argc, argv); }
