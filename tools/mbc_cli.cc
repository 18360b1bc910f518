// Copyright 2026 The balanced-clique Authors.
//
// Command-line driver for the library. Examples:
//
//   mbc_cli stats    --graph g.txt
//   mbc_cli mbc      --graph g.txt --tau 3 [--algo star|baseline|adv]
//   mbc_cli pf       --graph g.txt [--algo star|bs|enum]
//   mbc_cli gmbc     --graph g.txt
//   mbc_cli enum     --graph g.txt --tau 2 [--limit 100]
//   mbc_cli batch    --input queries.jsonl --workers 4
//   mbc_cli mutate   --name g --add "0 1 +;2 3 -" --connect HOST:PORT
//   mbc_cli migrate  --input 'corpus/*.mbcg' --in-place true
//   mbc_cli generate --dataset Bitcoin --scale 0.0625 --out g.bin
//   mbc_cli convert  --graph g.txt --out g.bin
//
// Graph files ending in ".bin"/".mbcg" are read/written in the binary
// format; anything else as a `u v sign` text edge list.
//
// Every solver command honors the global governor flags:
//   --time-limit SECONDS     wall-clock budget (best-effort result on expiry)
//   --memory-limit-mb MB     logical memory budget (tracker + RSS)
// and Ctrl-C (SIGINT), which cancels the run cooperatively: the solver
// unwinds at its next checkpoint and the best result found so far is
// printed, annotated with the interrupt reason.
#include <glob.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/execution.h"
#include "src/common/timer.h"
#include "src/core/mbc_adv.h"
#include "src/core/mbc_baseline.h"
#include "src/core/mbc_enum.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_star.h"
#include "src/core/mbc_tolerant.h"
#include "src/core/verify.h"
#include "src/datasets/families.h"
#include "src/datasets/registry.h"
#include "src/gmbc/gmbc.h"
#include "src/common/fingerprint.h"
#include "src/graph/binary_io.h"
#include "src/graph/delta_graph.h"
#include "src/graph/graph_io.h"
#include "src/graph/balance.h"
#include "src/graph/statistics.h"
#include "src/pf/pf_bs.h"
#include "src/pf/pf_e.h"
#include "src/pf/pf_star.h"
#include "src/related/balanced_subgraph.h"
#include "src/related/related_cliques.h"
#include "src/service/client.h"
#include "src/service/jsonl.h"
#include "src/service/query_service.h"
#include "src/service/transport.h"

namespace {

using mbc::Result;
using mbc::SignedGraph;
using mbc::Status;

// One governor for the whole invocation; the SIGINT handler cancels it
// (CancellationToken::Cancel is a lock-free atomic store, so it is
// async-signal-safe).
mbc::ExecutionContext g_execution;

void HandleSigint(int /*signum*/) { g_execution.RequestCancel(); }

// Prints the governor verdict once a command finishes.
void ReportInterrupt() {
  if (g_execution.Interrupted()) {
    std::printf("interrupted: %s (best-effort result)\n",
                mbc::InterruptReasonName(g_execution.reason()));
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: mbc_cli <command> [--flag value]...\n"
      "commands:\n"
      "  stats    --graph FILE\n"
      "  mbc      --graph FILE --tau T [--algo star|baseline|adv]\n"
      "           [--warm true]  seed MBC* with the heuristic incumbent\n"
      "  heu      --graph FILE --tau T [--seed S] [--ls-iters N]\n"
      "           [--anchors N]  heuristic tier (greedy + local search)\n"
      "  tol      --graph FILE --tau T --k K  max clique with at most K\n"
      "           frustrated edges (k=0 is exact MBC)\n"
      "  pf       --graph FILE [--algo star|bs|enum]\n"
      "  gmbc     --graph FILE\n"
      "  enum     --graph FILE --tau T [--limit N]\n"
      "  generate --dataset NAME --scale S --out FILE\n"
      "  gen      --family bscl|community --out FILE [--PARAM V]...\n"
      "           (run `mbc_cli gen` for per-family parameters)\n"
      "  convert  --graph FILE --out FILE [--format v1|v2]\n"
      "  balance  --graph FILE\n"
      "  related  --graph FILE [--alpha A --k K]\n"
      "  batch    --input FILE [--workers N] [--deterministic true]\n"
      "           [--connect HOST:PORT]  send to a running mbc_serve\n"
      "           [--retry N]            retry shed queries up to N attempts\n"
      "           [--retry-base-ms MS] [--retry-max-ms MS] [--retry-seed S]\n"
      "  mutate   --name G --connect HOST:PORT [--add \"u v s;...\"]\n"
      "           [--remove \"u v;...\"] [--snapshot true] [--path FILE]\n"
      "           [--emit true]  print the op lines instead of sending\n"
      "  migrate  --input GLOB [--in-place true]\n"
      "           rewrite v1 .mbcg/.bin corpora as mmap-ready v2 files\n"
      "           (default: alongside as FILE.v2; verifies round-trip)\n"
      "  datasets\n"
      "global flags (solver commands):\n"
      "  --time-limit SECONDS   wall-clock budget\n"
      "  --memory-limit-mb MB   memory budget\n"
      "Ctrl-C cancels cooperatively; the best-effort result is printed.\n");
  return 2;
}

// Minimal --key value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        values_[argv[i] + 2] = argv[i + 1];
      } else {
        ok_ = false;
      }
    }
    if ((argc - 2) % 2 != 0) ok_ = false;
  }

  bool ok() const { return ok_; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

bool IsBinaryPath(const std::string& path) {
  return path.ends_with(".bin") || path.ends_with(".mbcg");
}

Result<SignedGraph> LoadGraph(const std::string& path) {
  if (IsBinaryPath(path)) return mbc::ReadSignedGraphBinary(path);
  return mbc::ReadSignedEdgeList(path);
}

Status SaveGraph(const SignedGraph& graph, const std::string& path) {
  if (IsBinaryPath(path)) return mbc::WriteSignedGraphBinary(graph, path);
  return mbc::WriteSignedEdgeList(graph, path);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintClique(const mbc::BalancedClique& clique) {
  std::printf("size=%zu |C_L|=%zu |C_R|=%zu\n", clique.size(),
              clique.left.size(), clique.right.size());
  std::printf("C_L:");
  for (mbc::VertexId v : clique.left) std::printf(" %u", v);
  std::printf("\nC_R:");
  for (mbc::VertexId v : clique.right) std::printf(" %u", v);
  std::printf("\n");
}

int CmdStats(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const SignedGraph& g = graph.value();
  std::printf("vertices: %u\nedges: %llu (%llu positive, %llu negative)\n",
              g.NumVertices(),
              static_cast<unsigned long long>(g.NumEdges()),
              static_cast<unsigned long long>(g.NumPositiveEdges()),
              static_cast<unsigned long long>(g.NumNegativeEdges()));
  std::printf("negative ratio: %.4f\n", g.NegativeEdgeRatio());
  const mbc::SignedDegreeStats degrees = mbc::ComputeDegreeStats(g);
  std::printf("mean degree: %.2f  max degree: %u (d+ %u, d- %u)\n",
              degrees.mean_degree, degrees.max_degree,
              degrees.max_positive_degree, degrees.max_negative_degree);
  std::printf("isolated vertices: %u\n", degrees.isolated);
  std::printf("beta(G) upper bound (max polar key): %u\n",
              degrees.max_polar_key);
  const mbc::SignedTriangleCensus census = mbc::CountSignedTriangles(g);
  std::printf("triangles: %llu total | +++ %llu, ++- %llu, +-- %llu, "
              "--- %llu\n",
              static_cast<unsigned long long>(census.total()),
              static_cast<unsigned long long>(census.neg0),
              static_cast<unsigned long long>(census.neg1),
              static_cast<unsigned long long>(census.neg2),
              static_cast<unsigned long long>(census.neg3));
  std::printf("balance index: %.4f\n", census.BalanceIndex());
  std::printf("sign-degree correlation: %.4f\n",
              mbc::SignDegreeCorrelation(g));
  return 0;
}

int CmdMbc(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const auto tau =
      static_cast<uint32_t>(std::strtoul(flags.Get("tau", "3").c_str(),
                                         nullptr, 10));
  const std::string algo = flags.Get("algo", "star");
  const bool warm = flags.Get("warm", "false") == "true";
  if (warm && algo != "star") {
    std::fprintf(stderr, "--warm requires --algo star\n");
    return 2;
  }
  mbc::Timer timer;
  mbc::BalancedClique clique;
  if (algo == "star") {
    mbc::BalancedClique warm_clique;
    mbc::MbcStarOptions options;
    options.exec = &g_execution;
    if (warm) {
      mbc::MbcHeuOptions heu_options;
      heu_options.exec = &g_execution;
      warm_clique =
          mbc::MbcHeuristicSearch(graph.value(), tau, heu_options).clique;
      if (!warm_clique.empty() && warm_clique.SatisfiesThreshold(tau)) {
        options.initial_clique = &warm_clique;
        std::printf("warm start: heuristic incumbent of size %zu\n",
                    warm_clique.size());
      }
    }
    clique = mbc::MaxBalancedCliqueStar(graph.value(), tau, options).clique;
  } else if (algo == "baseline") {
    mbc::MbcBaselineOptions options;
    options.exec = &g_execution;
    clique =
        mbc::MaxBalancedCliqueBaseline(graph.value(), tau, options).clique;
  } else if (algo == "adv") {
    mbc::MbcAdvOptions options;
    options.exec = &g_execution;
    clique = mbc::MaxBalancedCliqueAdv(graph.value(), tau, options).clique;
  } else {
    std::fprintf(stderr, "unknown --algo %s\n", algo.c_str());
    return 2;
  }
  std::printf("algorithm: %s  tau: %u  time: %.3fs\n", algo.c_str(), tau,
              timer.ElapsedSeconds());
  ReportInterrupt();
  if (clique.empty()) {
    std::printf("no balanced clique satisfies tau=%u\n", tau);
    return 0;
  }
  PrintClique(clique);
  std::printf("verified: %s\n",
              mbc::IsBalancedClique(graph.value(), clique) ? "yes" : "NO");
  return 0;
}

int CmdHeu(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const auto tau =
      static_cast<uint32_t>(std::strtoul(flags.Get("tau", "3").c_str(),
                                         nullptr, 10));
  mbc::MbcHeuOptions options;
  options.exec = &g_execution;
  options.seed = std::strtoull(flags.Get("seed", "0").c_str(), nullptr, 10);
  // Unset flags keep MbcHeuOptions' defaults (the service's mbc_heu kind).
  options.local_search_iterations = static_cast<uint32_t>(std::strtoul(
      flags.Get("ls-iters", std::to_string(options.local_search_iterations))
          .c_str(),
      nullptr, 10));
  options.degeneracy_anchors = static_cast<uint32_t>(std::strtoul(
      flags.Get("anchors", std::to_string(options.degeneracy_anchors)).c_str(),
      nullptr, 10));
  mbc::Timer timer;
  const mbc::MbcHeuResult result =
      mbc::MbcHeuristicSearch(graph.value(), tau, options);
  std::printf("heuristic  tau: %u  time: %.3fs\n", tau,
              timer.ElapsedSeconds());
  std::printf("greedy size: %zu  ls iterations: %llu  improvements: %llu\n",
              result.stats.greedy_size,
              static_cast<unsigned long long>(result.stats.ls_iterations),
              static_cast<unsigned long long>(result.stats.ls_improvements));
  ReportInterrupt();
  if (result.clique.empty()) {
    std::printf("no balanced clique found for tau=%u\n", tau);
    return 0;
  }
  PrintClique(result.clique);
  std::printf("verified: %s\n",
              mbc::IsBalancedClique(graph.value(), result.clique) ? "yes"
                                                                  : "NO");
  return 0;
}

int CmdTol(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const auto tau =
      static_cast<uint32_t>(std::strtoul(flags.Get("tau", "3").c_str(),
                                         nullptr, 10));
  const auto k =
      static_cast<uint32_t>(std::strtoul(flags.Get("k", "0").c_str(),
                                         nullptr, 10));
  mbc::MbcTolerantOptions options;
  options.exec = &g_execution;
  mbc::Timer timer;
  const mbc::MbcTolerantResult result =
      mbc::MaxTolerantBalancedClique(graph.value(), tau, k, options);
  std::printf("tolerant  tau: %u  k: %u  time: %.3fs  branches: %llu\n", tau,
              k, timer.ElapsedSeconds(),
              static_cast<unsigned long long>(result.stats.branches));
  ReportInterrupt();
  if (result.clique.empty()) {
    std::printf("no clique satisfies tau=%u within budget k=%u\n", tau, k);
    return 0;
  }
  std::printf("frustrated edges: %u\n", result.frustrated_edges);
  PrintClique(result.clique);
  const std::optional<uint32_t> frustration =
      mbc::CountFrustratedEdges(graph.value(), result.clique);
  std::printf("verified: %s\n",
              frustration.has_value() && *frustration == result.frustrated_edges &&
                      *frustration <= k
                  ? "yes"
                  : "NO");
  return 0;
}

int CmdPf(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const std::string algo = flags.Get("algo", "star");
  mbc::Timer timer;
  uint32_t beta = 0;
  if (algo == "star") {
    mbc::PfStarOptions options;
    options.exec = &g_execution;
    const mbc::PfStarResult result =
        mbc::PolarizationFactorStar(graph.value(), options);
    beta = result.beta;
    std::printf("witness: %s\n", result.witness.ToString().c_str());
  } else if (algo == "bs") {
    mbc::PfBsOptions options;
    options.exec = &g_execution;
    beta = mbc::PolarizationFactorBinarySearch(graph.value(), options).beta;
  } else if (algo == "enum") {
    mbc::PfEOptions options;
    options.exec = &g_execution;
    beta = mbc::PolarizationFactorEnum(graph.value(), options).beta;
  } else {
    std::fprintf(stderr, "unknown --algo %s\n", algo.c_str());
    return 2;
  }
  ReportInterrupt();
  std::printf("beta(G) = %u  (%s, %.3fs)\n", beta, algo.c_str(),
              timer.ElapsedSeconds());
  return 0;
}

int CmdGmbc(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  mbc::GeneralizedMbcOptions options;
  options.exec = &g_execution;
  const mbc::GeneralizedMbcResult result =
      mbc::GeneralizedMbcStar(graph.value(), options);
  ReportInterrupt();
  std::printf("beta(G) = %u, %zu distinct cliques\n", result.beta,
              result.NumDistinctCliques());
  for (uint32_t tau = 0; tau < result.cliques.size(); ++tau) {
    const mbc::BalancedClique& clique = result.cliques[tau];
    std::printf("tau=%-3u size=%-5zu (%zu|%zu)\n", tau, clique.size(),
                clique.left.size(), clique.right.size());
  }
  return 0;
}

int CmdEnum(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const auto tau =
      static_cast<uint32_t>(std::strtoul(flags.Get("tau", "1").c_str(),
                                         nullptr, 10));
  mbc::MbcEnumOptions options;
  options.exec = &g_execution;
  options.max_cliques =
      std::strtoull(flags.Get("limit", "0").c_str(), nullptr, 10);
  const mbc::MbcEnumStats stats = mbc::EnumerateMaximalBalancedCliques(
      graph.value(), tau,
      [](const mbc::BalancedClique& clique) {
        std::printf("%s\n", clique.ToString().c_str());
      },
      options);
  ReportInterrupt();
  std::printf("# %llu maximal balanced clique(s)%s\n",
              static_cast<unsigned long long>(stats.num_reported),
              stats.truncated ? " (truncated)" : "");
  return 0;
}

int CmdGenerate(const Flags& flags) {
  Result<mbc::DatasetSpec> spec =
      mbc::FindDatasetSpec(flags.Get("dataset", ""));
  if (!spec.ok()) return Fail(spec.status());
  const double scale = std::strtod(flags.Get("scale", "0.0625").c_str(),
                                   nullptr);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  const SignedGraph graph = mbc::GenerateDataset(spec.value(), scale);
  const Status status = SaveGraph(graph, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s: n=%u m=%llu\n", out.c_str(), graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));
  return 0;
}

int CmdGen(const Flags& flags) {
  const std::string family = flags.Get("family", "");
  if (family.empty()) {
    std::fprintf(stderr,
                 "usage: mbc_cli gen --family NAME --out FILE [--PARAM V]...\n"
                 "families:\n");
    for (const mbc::GeneratorFamily& f : mbc::AllGeneratorFamilies()) {
      std::fprintf(stderr, "  %s — %s\n", f.name.c_str(),
                   f.description.c_str());
      for (const std::string& line : f.param_help) {
        std::fprintf(stderr, "      --%s\n", line.c_str());
      }
    }
    return 2;
  }
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  mbc::GeneratorParams params;
  for (const auto& [key, value] : flags.values()) {
    if (key == "family" || key == "out" || key == "time-limit" ||
        key == "memory-limit-mb") {
      continue;
    }
    params[key] = value;
  }
  mbc::Timer timer;
  Result<SignedGraph> graph = mbc::GenerateFromFamily(family, params);
  if (!graph.ok()) return Fail(graph.status());
  const double generate_seconds = timer.ElapsedSeconds();
  const Status status = SaveGraph(graph.value(), out);
  if (!status.ok()) return Fail(status);
  std::printf(
      "wrote %s: n=%u m=%llu (%llu+, %llu-) neg-ratio=%.4f "
      "generated in %.2fs\n",
      out.c_str(), graph.value().NumVertices(),
      static_cast<unsigned long long>(graph.value().NumEdges()),
      static_cast<unsigned long long>(graph.value().NumPositiveEdges()),
      static_cast<unsigned long long>(graph.value().NumNegativeEdges()),
      graph.value().NegativeEdgeRatio(), generate_seconds);
  return 0;
}

int CmdConvert(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  // --format v1 forces the legacy edge-list binary (compat tooling and
  // `migrate` test fixtures); the default picks by extension as before.
  const std::string format = flags.Get("format", "");
  Status status;
  if (format == "v1" || format == "v2") {
    mbc::BinaryWriteOptions options;
    options.version = format == "v1" ? 1 : 2;
    status = mbc::WriteSignedGraphBinary(graph.value(), out, options);
  } else if (format.empty()) {
    status = SaveGraph(graph.value(), out);
  } else {
    std::fprintf(stderr, "unknown --format %s (want v1 or v2)\n",
                 format.c_str());
    return 2;
  }
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdBalance(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  const mbc::BalanceCheck check = mbc::CheckGraphBalance(graph.value());
  if (check.balanced) {
    size_t side1 = 0;
    for (uint8_t s : check.sides) side1 += s;
    std::printf("balanced: yes (certifying split %zu | %zu)\n",
                check.sides.size() - side1, side1);
  } else {
    std::printf("balanced: no; violating cycle:");
    for (mbc::VertexId v : check.violating_cycle) std::printf(" %u", v);
    std::printf("\n");
  }
  const mbc::ConnectedComponents cc =
      mbc::ComputeConnectedComponents(graph.value());
  std::printf("connected components: %u (largest %u vertices)\n",
              cc.num_components,
              cc.sizes.empty() ? 0 : cc.sizes[cc.LargestComponent()]);
  return 0;
}

int CmdRelated(const Flags& flags) {
  Result<SignedGraph> graph = LoadGraph(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  // Keep the historical 60s safety cap on this exponential command unless
  // the user picked a budget explicitly with --time-limit.
  if (!flags.Has("time-limit")) {
    g_execution.set_deadline(mbc::Deadline::After(60.0));
  }
  const std::vector<mbc::VertexId> trusted =
      mbc::MaxTrustedClique(graph.value(), &g_execution);
  std::printf("maximum trusted clique: %zu vertices\n", trusted.size());
  mbc::AlphaKCliqueOptions options;
  options.exec = &g_execution;
  options.alpha = std::strtod(flags.Get("alpha", "1").c_str(), nullptr);
  options.k = static_cast<uint32_t>(
      std::strtoul(flags.Get("k", "1").c_str(), nullptr, 10));
  const mbc::AlphaKCliqueResult ak =
      mbc::MaxAlphaKClique(graph.value(), options);
  std::printf("maximum (%.2f,%u)-clique: %zu vertices%s\n", options.alpha,
              options.k, ak.clique.size(),
              ak.interrupt_reason != mbc::InterruptReason::kNone
                  ? " (interrupted; lower bound)"
                  : "");
  const mbc::BalancedSubgraphResult subgraph =
      mbc::LargeBalancedSubgraph(graph.value());
  std::printf("large balanced subgraph: %zu vertices\n",
              subgraph.vertices.size());
  return 0;
}

// Runs a JSONL request file through the same service layer as mbc_serve
// (worker pool, result cache, per-request governor), writing responses to
// stdout in request order. With --connect HOST:PORT the requests are sent
// to a running `mbc_serve --listen` daemon instead of an in-process pool.
int CmdBatch(const Flags& flags) {
  const std::string input = flags.Get("input", "");
  if (input.empty()) {
    std::fprintf(stderr, "--input is required (JSONL request file, - for "
                         "stdin)\n");
    return 2;
  }
  const std::string connect = flags.Get("connect", "");
  if (!connect.empty()) {
    mbc::Result<std::pair<std::string, uint16_t>> endpoint =
        mbc::ParseHostPort(connect);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "--connect: %s\n",
                   endpoint.status().ToString().c_str());
      return 2;
    }
    const size_t retry = static_cast<size_t>(
        std::strtoul(flags.Get("retry", "0").c_str(), nullptr, 10));
    const auto run_client = [&](std::istream& in) {
      if (retry == 0) {
        // Plain byte-streaming client: no protocol awareness, no retries.
        return mbc::RunJsonlSocketClient(endpoint.value().first,
                                         endpoint.value().second, in,
                                         std::cout);
      }
      mbc::RetryClientOptions retry_options;
      retry_options.max_attempts = retry;
      retry_options.base_backoff_ms =
          std::strtod(flags.Get("retry-base-ms", "10").c_str(), nullptr);
      retry_options.max_backoff_ms =
          std::strtod(flags.Get("retry-max-ms", "2000").c_str(), nullptr);
      retry_options.jitter_seed = std::strtoull(
          flags.Get("retry-seed", "24389").c_str(), nullptr, 10);
      mbc::RetryClientStats retry_stats;
      const mbc::Status status = mbc::RunRetryingJsonlClient(
          endpoint.value().first, endpoint.value().second, in, std::cout,
          retry_options, &retry_stats);
      if (flags.Get("stats", "false") == "true") {
        std::fprintf(stderr,
                     "{\"requests\":%llu,\"retries\":%llu,"
                     "\"reconnects\":%llu,\"gave_up\":%llu}\n",
                     static_cast<unsigned long long>(retry_stats.requests),
                     static_cast<unsigned long long>(retry_stats.retries),
                     static_cast<unsigned long long>(retry_stats.reconnects),
                     static_cast<unsigned long long>(retry_stats.gave_up));
      }
      return status;
    };
    mbc::Status status;
    if (input == "-") {
      status = run_client(std::cin);
    } else {
      std::ifstream in(input);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", input.c_str());
        return 1;
      }
      status = run_client(in);
    }
    std::cout.flush();
    if (!status.ok()) return Fail(status);
    return 0;
  }
  mbc::ServiceOptions options;
  options.num_workers = static_cast<size_t>(
      std::strtoul(flags.Get("workers", "4").c_str(), nullptr, 10));
  if (options.num_workers == 0) options.num_workers = 1;
  options.cache_capacity_bytes =
      std::strtoull(flags.Get("cache-mb", "64").c_str(), nullptr, 10) << 20;
  options.cache_max_entry_bytes = 1 << 20;  // JSONL-frontend default
  options.default_time_limit_seconds =
      std::strtod(flags.Get("time-limit", "0").c_str(), nullptr);
  mbc::QueryService service(options);
  mbc::JsonlOptions jsonl;
  jsonl.deterministic = flags.Get("deterministic", "false") == "true";
  mbc::Status status;
  if (input == "-") {
    status = mbc::RunJsonlStream(service, std::cin, std::cout, jsonl);
  } else {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", input.c_str());
      return 1;
    }
    status = mbc::RunJsonlStream(service, in, std::cout, jsonl);
  }
  std::cout.flush();
  if (flags.Get("stats", "false") == "true") {
    std::fprintf(stderr, "%s\n", service.StatsJson().c_str());
  }
  if (!status.ok()) return Fail(status);
  return 0;
}

// Builds one JSONL mutation conversation (add_edges / remove_edges /
// snapshot lines) and sends it to a running mbc_serve, or prints it with
// --emit true for scripting. Edge lists are validated locally before
// anything is sent, so a typo fails fast instead of burning a round trip.
int CmdMutate(const Flags& flags) {
  const std::string name = flags.Get("name", "");
  if (name.empty()) {
    std::fprintf(stderr, "--name is required\n");
    return 2;
  }
  const std::string add = flags.Get("add", "");
  const std::string remove = flags.Get("remove", "");
  const bool snapshot = flags.Get("snapshot", "false") == "true";
  const std::string path = flags.Get("path", "");
  if (add.empty() && remove.empty() && !snapshot) {
    std::fprintf(stderr,
                 "nothing to do: give --add, --remove or --snapshot true\n");
    return 2;
  }
  // The protocol carries edges as flat strings; the strings contain only
  // digits, spaces, signs and ';', so they embed into JSON verbatim.
  mbc::MutationBatch parsed;
  if (!add.empty()) {
    const Status status = mbc::ParseMutationEdges(add, true, &parsed);
    if (!status.ok()) return Fail(status);
  }
  if (!remove.empty()) {
    const Status status = mbc::ParseMutationEdges(remove, false, &parsed);
    if (!status.ok()) return Fail(status);
  }
  std::string requests;
  if (!add.empty()) {
    requests += "{\"op\":\"add_edges\",\"name\":\"" + name +
                "\",\"edges\":\"" + add + "\"}\n";
  }
  if (!remove.empty()) {
    requests += "{\"op\":\"remove_edges\",\"name\":\"" + name +
                "\",\"edges\":\"" + remove + "\"}\n";
  }
  if (snapshot) {
    requests += "{\"op\":\"snapshot\",\"name\":\"" + name + "\"";
    if (!path.empty()) requests += ",\"path\":\"" + path + "\"";
    requests += "}\n";
  }
  if (flags.Get("emit", "false") == "true") {
    std::fputs(requests.c_str(), stdout);
    return 0;
  }
  const std::string connect = flags.Get("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "--connect HOST:PORT is required (or --emit true)\n");
    return 2;
  }
  mbc::Result<std::pair<std::string, uint16_t>> endpoint =
      mbc::ParseHostPort(connect);
  if (!endpoint.ok()) return Fail(endpoint.status());
  std::istringstream in(requests);
  const Status status = mbc::RunJsonlSocketClient(
      endpoint.value().first, endpoint.value().second, in, std::cout);
  std::cout.flush();
  if (!status.ok()) return Fail(status);
  return 0;
}

// Peeks the binary header version; 0 for anything that is not an MBCG
// binary file.
uint32_t SniffBinaryVersion(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  char magic[4] = {};
  uint32_t version = 0;
  const bool is_binary =
      std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
      std::memcmp(magic, "MBCG", 4) == 0 &&
      std::fread(&version, 1, sizeof(version), f) == sizeof(version);
  std::fclose(f);
  return is_binary ? version : 0;
}

// Batch-rewrites v1 binary graphs as mmap-ready v2 files. Each file is
// written to a temp sibling, re-read and fingerprint-compared against the
// original, and only then moved into place (atomic rename), so an
// interrupted run never leaves a half-written corpus member.
int CmdMigrate(const Flags& flags) {
  const std::string pattern = flags.Get("input", "");
  if (pattern.empty()) {
    std::fprintf(stderr, "--input GLOB is required\n");
    return 2;
  }
  const bool in_place = flags.Get("in-place", "false") == "true";
  glob_t matches;
  const int rc = ::glob(pattern.c_str(), 0, nullptr, &matches);
  if (rc == GLOB_NOMATCH) {
    std::fprintf(stderr, "no files match '%s'\n", pattern.c_str());
    return 1;
  }
  if (rc != 0) {
    std::fprintf(stderr, "glob('%s') failed\n", pattern.c_str());
    return 1;
  }
  int migrated = 0;
  int skipped = 0;
  int failed = 0;
  for (size_t i = 0; i < matches.gl_pathc; ++i) {
    const std::string path = matches.gl_pathv[i];
    const uint32_t version = SniffBinaryVersion(path);
    if (version == 2) {
      std::printf("skip     %s (already v2)\n", path.c_str());
      ++skipped;
      continue;
    }
    if (version == 0) {
      std::printf("skip     %s (not an MBCG binary)\n", path.c_str());
      ++skipped;
      continue;
    }
    const auto fail = [&](const Status& status) {
      std::printf("FAIL     %s: %s\n", path.c_str(),
                  status.ToString().c_str());
      ++failed;
    };
    Result<SignedGraph> original = mbc::ReadSignedGraphBinary(path);
    if (!original.ok()) {
      fail(original.status());
      continue;
    }
    const uint64_t fingerprint =
        mbc::FingerprintSignedGraph(original.value());
    const std::string temp = path + ".migrate.tmp";
    if (const Status status =
            mbc::WriteSignedGraphBinary(original.value(), temp);
        !status.ok()) {
      fail(status);
      continue;
    }
    // Round-trip check: the rewritten bytes must decode to a graph with
    // the same content fingerprint before they may replace anything.
    Result<SignedGraph> reread = mbc::ReadSignedGraphBinary(temp);
    if (!reread.ok()) {
      std::remove(temp.c_str());
      fail(reread.status());
      continue;
    }
    if (mbc::FingerprintSignedGraph(reread.value()) != fingerprint) {
      std::remove(temp.c_str());
      fail(Status::Corruption("round-trip fingerprint mismatch"));
      continue;
    }
    const std::string dest = in_place ? path : path + ".v2";
    if (std::rename(temp.c_str(), dest.c_str()) != 0) {
      std::remove(temp.c_str());
      fail(Status::IOError("rename to '" + dest + "' failed"));
      continue;
    }
    std::printf("migrated %s -> %s (n=%u m=%llu fp=%016llx)\n", path.c_str(),
                dest.c_str(), original.value().NumVertices(),
                static_cast<unsigned long long>(original.value().NumEdges()),
                static_cast<unsigned long long>(fingerprint));
    ++migrated;
  }
  ::globfree(&matches);
  std::printf("# migrated %d, skipped %d, failed %d\n", migrated, skipped,
              failed);
  return failed == 0 ? 0 : 1;
}

int CmdDatasets() {
  std::printf("%-14s %-10s %12s %14s %8s %6s\n", "name", "category",
              "paper |V|", "paper |E|", "|C*|t3", "beta");
  for (const mbc::DatasetSpec& spec : mbc::AllDatasetSpecs()) {
    std::printf("%-14s %-10s %12u %14llu %8u %6u\n", spec.name.c_str(),
                spec.category.c_str(), spec.paper_vertices,
                static_cast<unsigned long long>(spec.paper_edges),
                spec.paper_cstar_tau3, spec.paper_beta);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (!flags.ok()) return Usage();

  if (flags.Has("time-limit")) {
    g_execution.set_deadline(mbc::Deadline::After(
        std::strtod(flags.Get("time-limit", "0").c_str(), nullptr)));
  }
  if (flags.Has("memory-limit-mb")) {
    const double mib = std::strtod(
        flags.Get("memory-limit-mb", "0").c_str(), nullptr);
    if (mib > 0) {
      g_execution.set_memory_budget(mbc::MemoryBudget::Limit(
          static_cast<uint64_t>(mib * 1024.0 * 1024.0)));
    }
  }
  std::signal(SIGINT, HandleSigint);

  if (command == "stats") return CmdStats(flags);
  if (command == "mbc") return CmdMbc(flags);
  if (command == "heu") return CmdHeu(flags);
  if (command == "tol") return CmdTol(flags);
  if (command == "pf") return CmdPf(flags);
  if (command == "gmbc") return CmdGmbc(flags);
  if (command == "enum") return CmdEnum(flags);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "gen") return CmdGen(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "balance") return CmdBalance(flags);
  if (command == "related") return CmdRelated(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "mutate") return CmdMutate(flags);
  if (command == "migrate") return CmdMigrate(flags);
  if (command == "datasets") return CmdDatasets();
  return Usage();
}
