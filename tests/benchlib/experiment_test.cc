// Copyright 2026 The balanced-clique Authors.
#include "src/benchlib/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace mbc {
namespace {

class ExperimentEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest runs each case of this fixture as its own
    // process in parallel, and they must not share (and remove_all) one dir.
    cache_dir_ = ::testing::TempDir() + "/mbc_cache_test_" +
                 std::to_string(static_cast<long>(getpid()));
    std::filesystem::remove_all(cache_dir_);
    setenv("MBC_CACHE_DIR", cache_dir_.c_str(), 1);
    setenv("MBC_DATASETS", "Bitcoin", 1);
    setenv("MBC_SCALE", "1.0", 1);
  }
  void TearDown() override {
    unsetenv("MBC_CACHE_DIR");
    unsetenv("MBC_DATASETS");
    unsetenv("MBC_SCALE");
    std::filesystem::remove_all(cache_dir_);
  }
  std::string cache_dir_;
};

TEST_F(ExperimentEnvTest, FilterSelectsSingleDataset) {
  const std::vector<ExperimentDataset> datasets = LoadExperimentDatasets();
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_EQ(datasets[0].spec.name, "Bitcoin");
  EXPECT_GT(datasets[0].graph.NumEdges(), 0u);
}

TEST_F(ExperimentEnvTest, CacheRoundTripsTheGraph) {
  const std::vector<ExperimentDataset> first = LoadExperimentDatasets();
  ASSERT_EQ(first.size(), 1u);
  // A cache file now exists...
  bool found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir_)) {
    found |= entry.path().extension() == ".mbcg";
  }
  EXPECT_TRUE(found);
  // ...and the second load (cache hit) yields the identical graph.
  const std::vector<ExperimentDataset> second = LoadExperimentDatasets();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].graph.NumVertices(), second[0].graph.NumVertices());
  EXPECT_EQ(first[0].graph.NumPositiveEdges(),
            second[0].graph.NumPositiveEdges());
  EXPECT_EQ(first[0].graph.NumNegativeEdges(),
            second[0].graph.NumNegativeEdges());
}

// An empty MBC_CACHE_DIR disables the cache: both loads generate, and
// neither reads nor writes the default cache directory.
TEST_F(ExperimentEnvTest, DisabledCacheStillLoads) {
  setenv("MBC_CACHE_DIR", "", 1);
  for (int load = 0; load < 2; ++load) {
    ::testing::internal::CaptureStdout();
    const std::vector<ExperimentDataset> datasets = LoadExperimentDatasets();
    std::fflush(stdout);
    const std::string out = ::testing::internal::GetCapturedStdout();
    ASSERT_EQ(datasets.size(), 1u);
    EXPECT_GT(datasets[0].graph.NumEdges(), 0u);
    EXPECT_EQ(out.rfind("[gen]", 0), 0u) << "load " << load << ": " << out;
  }
}

TEST_F(ExperimentEnvTest, BaselineTimeLimitFromEnv) {
  setenv("MBC_TIME_LIMIT", "2.5", 1);
  EXPECT_DOUBLE_EQ(BaselineTimeLimitSeconds(), 2.5);
  unsetenv("MBC_TIME_LIMIT");
  EXPECT_DOUBLE_EQ(BaselineTimeLimitSeconds(), 5.0);
}

}  // namespace
}  // namespace mbc
