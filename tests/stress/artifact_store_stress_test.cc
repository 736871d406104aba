// ArtifactStore concurrency stress: many writers and readers hammer ONE
// store file through SEPARATE open handles. BSD flock is per
// open-file-description, so distinct handles in one process contend exactly
// like distinct processes — this exercises the advisory-lock protocol
// (shared reads, exclusive appends, reliable-end tracking across handles)
// without a fork/exec harness. The bar: no torn pages, no lost records,
// and a clean fsck at the end.

#include "store/artifact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/pipeline_cache.h"
#include "test_util.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;

std::shared_ptr<ArtifactStore> OpenOrDie(const std::string& path) {
  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  DCS_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// A small distinct graph per (thread, round): a 4-cycle whose weights encode
// the pair, so every record has a unique fingerprint and verifiable content.
Graph DistinctGraph(uint32_t thread, uint32_t round) {
  const double w = 1.0 + thread * 97.0 + round;
  return MakeGraph(4, {{0, 1, w}, {1, 2, w + 0.5}, {2, 3, -w}, {0, 3, 2.0}});
}

// Two per-thread key families: `verified` keys carry DistinctGraph content
// and are re-read right after their synchronous append; the others carry
// Fig1Gd and alternate synchronous and asynchronous appends.
PipelineCacheKey DistinctKey(uint32_t thread, uint32_t round, bool verified) {
  PipelineCacheKey key;
  key.graph_fingerprint =
      (verified ? 0x5645524946590000ull : 0x5354524553530000ull) + thread;
  key.alpha = 1.0 + round;
  return key;
}

PreparedPipeline DifferenceOnly(Graph difference) {
  PreparedPipeline pipeline;
  pipeline.difference = std::move(difference);
  return pipeline;
}

TEST(ArtifactStoreStressTest, ConcurrentHandlesOnOneFile) {
  const std::string path =
      ::testing::TempDir() + "artifact_store_stress_shared.dcs";
  std::filesystem::remove(path);

  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kRounds = 24;

  std::atomic<uint64_t> load_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each worker owns a private handle — and therefore a private flock.
      auto store = OpenOrDie(path);
      for (uint32_t r = 0; r < kRounds; ++r) {
        const Graph graph = DistinctGraph(t, r);
        const PipelineCacheKey verified_key = DistinctKey(t, r, true);
        ASSERT_TRUE(store->PutPipeline(verified_key, DifferenceOnly(graph))
                        .ok());

        const PreparedPipeline pipeline = DifferenceOnly(Fig1Gd());
        if (r % 2 == 0) {
          ASSERT_TRUE(
              store->PutPipeline(DistinctKey(t, r, false), pipeline).ok());
        } else {
          store->PutPipelineAsync(
              DistinctKey(t, r, false),
              std::make_shared<const PreparedPipeline>(pipeline));
        }

        // Re-read our own record through the same contended file. A handle
        // always sees its own appends; anything else is a torn write.
        Result<PreparedPipeline> back = store->LoadPipeline(verified_key);
        if (!back.ok() || back->difference.ContentFingerprint() !=
                              graph.ContentFingerprint()) {
          load_failures.fetch_add(1);
        }
      }
      store->Flush();
      EXPECT_EQ(store->stats().write_errors, 0u);
      EXPECT_EQ(store->stats().corrupt_pages, 0u);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(load_failures.load(), 0u);

  // Offline: every page in the file must be intact.
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->superblock_ok);
  EXPECT_EQ(report->corrupt_pages, 0u);
  EXPECT_EQ(report->unreliable_tail_bytes, 0u);
  EXPECT_EQ(report->valid_records, uint64_t{kThreads} * kRounds * 2);

  // A fresh handle indexes every record and can load all of them.
  auto verifier = OpenOrDie(path);
  const ArtifactStoreStats stats = verifier->stats();
  EXPECT_EQ(stats.pipeline_records, uint64_t{kThreads} * kRounds * 2);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (uint32_t r = 0; r < kRounds; ++r) {
      const Graph expected = DistinctGraph(t, r);
      Result<PreparedPipeline> verified =
          verifier->LoadPipeline(DistinctKey(t, r, true));
      ASSERT_TRUE(verified.ok()) << "thread " << t << " round " << r;
      EXPECT_EQ(verified->difference.UndirectedEdges(),
                expected.UndirectedEdges());
      Result<PreparedPipeline> pipeline =
          verifier->LoadPipeline(DistinctKey(t, r, false));
      ASSERT_TRUE(pipeline.ok()) << "thread " << t << " round " << r;
      EXPECT_EQ(pipeline->difference.ContentFingerprint(),
                Fig1Gd().ContentFingerprint());
    }
  }
  EXPECT_EQ(verifier->stats().corrupt_pages, 0u);
}

TEST(ArtifactStoreStressTest, WritersRacingSameKeyConvergeToOneWinner) {
  const std::string path =
      ::testing::TempDir() + "artifact_store_stress_samekey.dcs";
  std::filesystem::remove(path);

  constexpr uint32_t kThreads = 6;
  constexpr uint32_t kRounds = 16;
  PipelineCacheKey key;
  key.graph_fingerprint = 0xC0FFEEull;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto store = OpenOrDie(path);
      for (uint32_t r = 0; r < kRounds; ++r) {
        // All threads overwrite ONE key with per-thread content; interleaved
        // loads must always see *some* writer's intact record, never a blend.
        PreparedPipeline pipeline;
        pipeline.difference = DistinctGraph(t, 0);
        ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
        Result<PreparedPipeline> read = store->LoadPipeline(key);
        ASSERT_TRUE(read.ok());
        bool matches_some_writer = false;
        for (uint32_t other = 0; other < kThreads; ++other) {
          if (read->difference.ContentFingerprint() ==
              DistinctGraph(other, 0).ContentFingerprint()) {
            matches_some_writer = true;
            break;
          }
        }
        EXPECT_TRUE(matches_some_writer) << "torn pipeline record observed";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->superblock_ok);
  EXPECT_EQ(report->corrupt_pages, 0u);
  EXPECT_EQ(report->valid_records, uint64_t{kThreads} * kRounds);

  // The newest record wins: a fresh handle holds exactly one entry.
  auto verifier = OpenOrDie(path);
  EXPECT_EQ(verifier->stats().pipeline_records, 1u);
  EXPECT_TRUE(verifier->LoadPipeline(key).ok());
}

}  // namespace
}  // namespace dcs
