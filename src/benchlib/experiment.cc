// Copyright 2026 The balanced-clique Authors.
#include "src/benchlib/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "src/common/env.h"
#include "src/common/timer.h"
#include "src/graph/binary_io.h"

namespace mbc {
namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

// Generated stand-ins are cached as binary files keyed by (name, scale),
// so the ~dozen experiment binaries do not each regenerate the
// multi-million-edge graphs. MBC_CACHE_DIR names the directory: unset means
// /tmp/mbc_dataset_cache, and set but empty disables the cache. (Read with
// getenv directly: GetEnvString maps an empty value to its fallback.)
std::string CachePathFor(const DatasetSpec& spec, double scale) {
  const char* env = std::getenv("MBC_CACHE_DIR");
  const std::string dir = env == nullptr ? "/tmp/mbc_dataset_cache" : env;
  if (dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  char scale_tag[32];
  std::snprintf(scale_tag, sizeof(scale_tag), "%.6f", scale);
  return dir + "/" + spec.name + "_" + scale_tag + ".mbcg";
}

SignedGraph LoadOrGenerate(const DatasetSpec& spec, double scale,
                           bool* cache_hit) {
  *cache_hit = false;
  const std::string cache_path = CachePathFor(spec, scale);
  if (!cache_path.empty()) {
    Result<SignedGraph> cached = ReadSignedGraphBinary(cache_path);
    if (cached.ok()) {
      *cache_hit = true;
      return std::move(cached).value();
    }
  }
  SignedGraph graph = GenerateDataset(spec, scale);
  if (!cache_path.empty()) {
    const Status status = WriteSignedGraphBinary(graph, cache_path);
    if (!status.ok()) {
      std::remove(cache_path.c_str());  // avoid truncated cache entries
    }
  }
  return graph;
}

}  // namespace

std::vector<ExperimentDataset> LoadExperimentDatasets() {
  const double scale = DatasetScaleFromEnv();
  const std::vector<std::string> filter =
      SplitCsv(GetEnvString("MBC_DATASETS", ""));

  std::vector<ExperimentDataset> datasets;
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    if (!filter.empty()) {
      bool selected = false;
      for (const std::string& name : filter) selected |= (name == spec.name);
      if (!selected) continue;
    }
    Timer timer;
    ExperimentDataset dataset;
    dataset.spec = spec;
    bool cache_hit = false;
    dataset.graph = LoadOrGenerate(spec, scale, &cache_hit);
    std::printf("[%s] %-12s n=%-9u m=%-10llu neg=%.2f (%.1fs)\n",
                cache_hit ? "cache" : "gen", spec.name.c_str(),
                dataset.graph.NumVertices(),
                static_cast<unsigned long long>(dataset.graph.NumEdges()),
                dataset.graph.NegativeEdgeRatio(), timer.ElapsedSeconds());
    datasets.push_back(std::move(dataset));
  }
  return datasets;
}

double BaselineTimeLimitSeconds() {
  return GetEnvDouble("MBC_TIME_LIMIT", 5.0);
}

ExecutionContext* ConfigureRunContext(ExecutionContext* exec,
                                      double time_limit_seconds) {
  if (time_limit_seconds > 0) {
    exec->set_deadline(Deadline::After(time_limit_seconds));
  }
  const double limit_mib = GetEnvDouble("MBC_MEMORY_LIMIT_MB", 0.0);
  if (limit_mib > 0) {
    exec->set_memory_budget(MemoryBudget::Limit(
        static_cast<uint64_t>(limit_mib * 1024.0 * 1024.0)));
  }
  return exec;
}

void PrintExperimentHeader(const std::string& title,
                           const std::string& paper_artifact) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s of Yao, Chang & Qin, ICDE 2022\n",
              paper_artifact.c_str());
  std::printf(
      "Datasets are synthetic stand-ins with planted ground truth\n"
      "(see DESIGN.md §4); MBC_SCALE=%.4f of paper sizes.\n",
      DatasetScaleFromEnv());
  std::printf("==================================================\n");
}

}  // namespace mbc
