// Copyright 2026 The balanced-clique Authors.
//
// Unit tests for the streaming mutation layer: patch-merge correctness
// against from-scratch builds, op classification, validation atomicity,
// fingerprint lineage, net-drift overlay accounting and compaction.
#include "src/graph/delta_graph.h"

#include <map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/fingerprint.h"
#include "src/graph/signed_graph.h"
#include "src/graph/signed_graph_builder.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using EdgeMap = std::map<std::pair<VertexId, VertexId>, Sign>;

SignedGraph Materialize(VertexId n, const EdgeMap& edges) {
  SignedGraphBuilder builder(n);
  for (const auto& [key, sign] : edges) {
    builder.AddEdge(key.first, key.second, sign);
  }
  return std::move(builder).Build();
}

void ExpectSameGraph(const SignedGraph& got, const SignedGraph& want) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    const auto got_pos = got.PositiveNeighbors(v);
    const auto want_pos = want.PositiveNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(got_pos.begin(), got_pos.end()),
              std::vector<VertexId>(want_pos.begin(), want_pos.end()))
        << "positive row of " << v;
    const auto got_neg = got.NegativeNeighbors(v);
    const auto want_neg = want.NegativeNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(got_neg.begin(), got_neg.end()),
              std::vector<VertexId>(want_neg.begin(), want_neg.end()))
        << "negative row of " << v;
  }
}

std::pair<VertexId, VertexId> Key(VertexId u, VertexId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

TEST(DeltaGraphTest, AddRemoveFlipMatchesFromScratchBuild) {
  EdgeMap edges = {{{0, 1}, Sign::kPositive},
                   {{1, 2}, Sign::kPositive},
                   {{2, 3}, Sign::kNegative},
                   {{3, 4}, Sign::kPositive}};
  SignedGraph head = Materialize(6, edges);
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());

  MutationBatch batch;
  batch.add.push_back({0, 4, Sign::kNegative});   // new edge
  batch.add.push_back({1, 2, Sign::kNegative});   // flip
  batch.add.push_back({0, 1, Sign::kPositive});   // no-op (same sign)
  batch.remove.push_back({2, 3});                 // delete
  batch.remove.push_back({4, 5});                 // no-op (absent)

  auto patch = log.Apply(head, batch, DeltaBudget{});
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  EXPECT_EQ(patch.value().stats.added, 1u);
  EXPECT_EQ(patch.value().stats.flipped, 1u);
  EXPECT_EQ(patch.value().stats.removed, 1u);
  EXPECT_EQ(patch.value().stats.noops, 2u);
  EXPECT_EQ(patch.value().stats.version, 1u);
  EXPECT_EQ(log.version(), 1u);

  edges[Key(0, 4)] = Sign::kNegative;
  edges[Key(1, 2)] = Sign::kNegative;
  edges.erase(Key(2, 3));
  ExpectSameGraph(patch.value().graph, Materialize(6, edges));

  // Dirty region: endpoints of the three effective ops, sorted unique.
  EXPECT_EQ(patch.value().stats.dirty,
            (std::vector<VertexId>{0, 1, 2, 3, 4}));
  // Skeleton edits exclude the flip.
  EXPECT_EQ(patch.value().stats.skeleton_adds,
            (std::vector<std::pair<VertexId, VertexId>>{{0, 4}}));
  EXPECT_EQ(patch.value().stats.skeleton_removes,
            (std::vector<std::pair<VertexId, VertexId>>{{2, 3}}));
}

TEST(DeltaGraphTest, AllNoopBatchLeavesLineageUntouched) {
  EdgeMap edges = {{{0, 1}, Sign::kPositive}};
  SignedGraph head = Materialize(3, edges);
  const uint64_t fp = FingerprintSignedGraph(head);
  DeltaSignedGraph log(fp, 0, head.NumEdges());

  MutationBatch batch;
  batch.add.push_back({0, 1, Sign::kPositive});
  batch.remove.push_back({1, 2});
  auto patch = log.Apply(head, batch, DeltaBudget{});
  ASSERT_TRUE(patch.ok());
  EXPECT_EQ(patch.value().stats.noops, 2u);
  EXPECT_EQ(patch.value().stats.version, 0u);
  EXPECT_EQ(patch.value().stats.fingerprint, fp);
  EXPECT_EQ(log.version(), 0u);
  EXPECT_EQ(log.overlay_entries(), 0u);
}

TEST(DeltaGraphTest, ValidationRejectsBeforeAnyStateChange) {
  SignedGraph head = Materialize(4, {{{0, 1}, Sign::kPositive}});
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());
  const uint64_t fp = log.fingerprint();

  MutationBatch self_loop;
  self_loop.add.push_back({2, 2, Sign::kPositive});
  EXPECT_FALSE(log.Apply(head, self_loop, DeltaBudget{}).ok());

  MutationBatch out_of_range;
  out_of_range.add.push_back({0, 9, Sign::kPositive});
  EXPECT_FALSE(log.Apply(head, out_of_range, DeltaBudget{}).ok());

  MutationBatch duplicate;
  duplicate.add.push_back({1, 2, Sign::kPositive});
  duplicate.remove.push_back({2, 1});
  EXPECT_FALSE(log.Apply(head, duplicate, DeltaBudget{}).ok());

  // A rejected batch must not advance the lineage or grow the log.
  EXPECT_EQ(log.version(), 0u);
  EXPECT_EQ(log.fingerprint(), fp);
  EXPECT_EQ(log.overlay_entries(), 0u);
}

TEST(DeltaGraphTest, DerivedFingerprintIsDeterministicAndOrderSensitive) {
  SignedGraph head = Materialize(5, {{{0, 1}, Sign::kPositive}});
  const uint64_t base_fp = FingerprintSignedGraph(head);

  const auto run = [&](const std::vector<MutationEdge>& adds) {
    DeltaSignedGraph log(base_fp, 0, head.NumEdges());
    MutationBatch batch;
    batch.add = adds;
    auto patch = log.Apply(head, batch, DeltaBudget{});
    EXPECT_TRUE(patch.ok());
    return patch.value().stats.fingerprint;
  };

  const uint64_t fp1 = run({{1, 2, Sign::kNegative}, {2, 3, Sign::kPositive}});
  const uint64_t fp2 = run({{2, 3, Sign::kPositive}, {1, 2, Sign::kNegative}});
  // The fold is over key-sorted effective ops, so op order within a batch
  // does not matter...
  EXPECT_EQ(fp1, fp2);
  // ...but the lineage is a version tag, not a content address.
  EXPECT_NE(fp1, base_fp);
}

TEST(DeltaGraphTest, OverlayTracksNetDriftNotOpVolume) {
  EdgeMap edges = {{{0, 1}, Sign::kPositive}, {{1, 2}, Sign::kNegative}};
  SignedGraph head = Materialize(4, edges);
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());

  // A permissive budget keeps the drift un-compacted on this tiny base
  // (the default ratio would fold it straight into the CSR).
  DeltaBudget loose;
  loose.compact_ratio = 100.0;
  MutationBatch add;
  add.add.push_back({2, 3, Sign::kPositive});
  auto patch1 = log.Apply(head, add, loose);
  ASSERT_TRUE(patch1.ok());
  EXPECT_EQ(log.overlay_entries(), 1u);

  // Removing the just-added edge restores the base state: the overlay
  // entry is erased, not stacked.
  MutationBatch remove;
  remove.remove.push_back({2, 3});
  auto patch2 = log.Apply(patch1.value().graph, remove, loose);
  ASSERT_TRUE(patch2.ok());
  EXPECT_EQ(log.overlay_entries(), 0u);
  EXPECT_EQ(log.delta_bytes(), 0u);
  // The version still advanced twice — lineage is monotone even when the
  // content returns to the base.
  EXPECT_EQ(log.version(), 2u);
}

TEST(DeltaGraphTest, BudgetTriggersCompactionToContentFingerprint) {
  EdgeMap edges;
  for (VertexId v = 0; v + 1 < 20; ++v) edges[{v, v + 1}] = Sign::kPositive;
  SignedGraph head = Materialize(20, edges);
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());

  DeltaBudget tight;
  tight.max_delta_bytes = 1;  // any drift compacts
  MutationBatch batch;
  batch.add.push_back({0, 5, Sign::kNegative});
  auto patch = log.Apply(head, batch, tight);
  ASSERT_TRUE(patch.ok());
  EXPECT_TRUE(patch.value().stats.compacted);
  EXPECT_EQ(log.overlay_entries(), 0u);
  EXPECT_EQ(patch.value().stats.fingerprint,
            FingerprintSignedGraph(patch.value().graph));
  // The patched head carries the hint so GraphStore skips the O(m) pass.
  ASSERT_TRUE(patch.value().graph.FingerprintHint().has_value());
  EXPECT_EQ(*patch.value().graph.FingerprintHint(),
            patch.value().stats.fingerprint);
}

TEST(DeltaGraphTest, ForcedCompactConvergesWithFreshLoadFingerprint) {
  EdgeMap edges = {{{0, 1}, Sign::kPositive}, {{1, 2}, Sign::kNegative}};
  SignedGraph head = Materialize(5, edges);
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());

  // Keep the drift un-compacted so Compact has real work (the default
  // ratio would auto-compact on a 2-edge base and pre-empt the test).
  DeltaBudget loose;
  loose.compact_ratio = 100.0;
  MutationBatch batch;
  batch.add.push_back({3, 4, Sign::kPositive});
  auto patch = log.Apply(head, batch, loose);
  ASSERT_TRUE(patch.ok());
  const uint64_t derived = patch.value().stats.fingerprint;

  const auto compacted = log.Compact(patch.value().graph);
  EXPECT_TRUE(compacted.changed);
  EXPECT_NE(compacted.fingerprint, derived);

  // Same logical graph built from scratch: identical content fingerprint.
  edges[Key(3, 4)] = Sign::kPositive;
  EXPECT_EQ(compacted.fingerprint,
            FingerprintSignedGraph(Materialize(5, edges)));

  // Compacting twice is a no-op.
  EXPECT_FALSE(log.Compact(patch.value().graph).changed);
}

// A batch that undoes its predecessor empties the log but leaves the
// derived lineage fingerprint on the head: a forced compaction must still
// re-fingerprint it by content.
TEST(DeltaGraphTest, CompactAfterNetZeroDriftRestoresContentFingerprint) {
  EdgeMap edges = {{{0, 1}, Sign::kPositive}, {{1, 2}, Sign::kNegative}};
  SignedGraph head = Materialize(4, edges);
  const uint64_t base_fp = FingerprintSignedGraph(head);
  DeltaSignedGraph log(base_fp, 0, head.NumEdges());

  DeltaBudget loose;
  loose.compact_ratio = 100.0;
  MutationBatch add;
  add.add.push_back({2, 3, Sign::kPositive});
  auto added = log.Apply(head, add, loose);
  ASSERT_TRUE(added.ok());
  MutationBatch remove;
  remove.remove.push_back({2, 3});
  auto removed = log.Apply(added.value().graph, remove, loose);
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(log.overlay_entries(), 0u);
  ASSERT_NE(log.fingerprint(), base_fp);

  const auto compacted = log.Compact(removed.value().graph);
  EXPECT_TRUE(compacted.changed);
  // Same content as a fresh load of the base edges.
  EXPECT_EQ(compacted.fingerprint,
            FingerprintSignedGraph(Materialize(4, edges)));
  EXPECT_EQ(log.fingerprint(), compacted.fingerprint);
  EXPECT_FALSE(log.Compact(removed.value().graph).changed);
}

TEST(DeltaGraphTest, AddCliqueBoundCoversCommonNeighborhood) {
  // 0 and 1 share common neighbors {2, 3} (mixed signs); adding the edge
  // {0, 1} can create cliques of size at most 2 + 2.
  EdgeMap edges = {{{0, 2}, Sign::kPositive}, {{1, 2}, Sign::kPositive},
                   {{0, 3}, Sign::kNegative}, {{1, 3}, Sign::kPositive},
                   {{0, 4}, Sign::kPositive}};
  SignedGraph head = Materialize(6, edges);
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());
  MutationBatch batch;
  batch.add.push_back({0, 1, Sign::kPositive});
  auto patch = log.Apply(head, batch, DeltaBudget{});
  ASSERT_TRUE(patch.ok());
  EXPECT_EQ(patch.value().stats.add_clique_bound, 4u);

  // Removal-only batches cannot create cliques.
  MutationBatch remove;
  remove.remove.push_back({0, 2});
  auto patch2 = log.Apply(patch.value().graph, remove, DeltaBudget{});
  ASSERT_TRUE(patch2.ok());
  EXPECT_EQ(patch2.value().stats.add_clique_bound, 0u);
}

TEST(DeltaGraphTest, RandomizedPatchMergeMatchesFromScratch) {
  const VertexId n = 40;
  SignedGraph base = testing_util::RandomSignedGraph(n, 120, 0.3, 7);
  EdgeMap edges;
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : base.PositiveNeighbors(u)) {
      if (u < v) edges[{u, v}] = Sign::kPositive;
    }
    for (const VertexId v : base.NegativeNeighbors(u)) {
      if (u < v) edges[{u, v}] = Sign::kNegative;
    }
  }
  SignedGraph head = Materialize(n, edges);
  DeltaSignedGraph log(FingerprintSignedGraph(head), 0, head.NumEdges());

  uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 30; ++round) {
    MutationBatch batch;
    std::map<std::pair<VertexId, VertexId>, bool> used;
    const int ops = 1 + static_cast<int>(next() % 6);
    for (int k = 0; k < ops; ++k) {
      VertexId u = static_cast<VertexId>(next() % n);
      VertexId v = static_cast<VertexId>(next() % n);
      if (u == v) continue;
      const auto key = Key(u, v);
      if (used.count(key) != 0) continue;
      used[key] = true;
      if (next() % 3 == 0) {
        batch.remove.push_back(key);
        edges.erase(key);
      } else {
        const Sign sign = next() % 2 == 0 ? Sign::kPositive : Sign::kNegative;
        batch.add.push_back({key.first, key.second, sign});
        edges[key] = sign;
      }
    }
    auto patch = log.Apply(head, batch, DeltaBudget{});
    ASSERT_TRUE(patch.ok()) << patch.status().ToString();
    if (patch.value().graph.NumVertices() == 0) {
      continue;  // all-noop batch: head unchanged, no patch minted
    }
    SignedGraph want = Materialize(n, edges);
    ExpectSameGraph(patch.value().graph, want);
    head = std::move(patch.value().graph);
  }
}

TEST(ParseMutationEdgesTest, ParsesSignedAndUnsignedLists) {
  MutationBatch batch;
  ASSERT_TRUE(ParseMutationEdges("0 1 +;2 3 -1; 4 5 1 ", true, &batch).ok());
  ASSERT_EQ(batch.add.size(), 3u);
  EXPECT_EQ(batch.add[0].u, 0u);
  EXPECT_EQ(batch.add[0].sign, Sign::kPositive);
  EXPECT_EQ(batch.add[1].sign, Sign::kNegative);
  EXPECT_EQ(batch.add[2].sign, Sign::kPositive);

  ASSERT_TRUE(ParseMutationEdges("7 8;9 10", false, &batch).ok());
  ASSERT_EQ(batch.remove.size(), 2u);
  EXPECT_EQ(batch.remove[1], (std::pair<VertexId, VertexId>{9, 10}));
}

TEST(ParseMutationEdgesTest, RejectsMalformedInput) {
  MutationBatch batch;
  EXPECT_FALSE(ParseMutationEdges("0 1", true, &batch).ok());       // no sign
  EXPECT_FALSE(ParseMutationEdges("0 1 *", true, &batch).ok());    // bad sign
  EXPECT_FALSE(ParseMutationEdges("0 1 + 2", true, &batch).ok());  // trailing
  EXPECT_FALSE(ParseMutationEdges("0 1 +;x 2 -", true, &batch).ok());
  EXPECT_FALSE(ParseMutationEdges("0 1 -", false, &batch).ok());  // sign given
  EXPECT_FALSE(ParseMutationEdges("", true, &batch).ok());
}

}  // namespace
}  // namespace mbc
