// PipelineCache tests: cross-session reuse bit-identity, build-once gating
// under concurrency, copy-on-write invalidation on ApplyUpdate, LRU and
// byte-budget eviction (including racing in-flight solves), the
// hit/miss/bytes telemetry contract, and the per-entry response memo.

#include "api/pipeline_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "gen/coauthor.h"
#include "store/job_journal.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::SerializeDeterministic;
using ::dcs::testing::SerializeSubgraphs;

SessionOptions WithCache(std::shared_ptr<PipelineCache> cache) {
  SessionOptions options;
  options.pipeline_cache = std::move(cache);
  return options;
}

// A mid-size planted dataset so prepare/solve costs are non-trivial and the
// concurrency tests get real interleavings.
CoauthorData PlantedCoauthor() {
  Rng rng(424242);
  CoauthorConfig config;
  config.num_authors = 800;
  config.emerging_sizes = {5, 6};
  config.disappearing_sizes = {4};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  DCS_CHECK(data.ok());
  return std::move(data).value();
}

TEST(GraphFingerprintTest, EqualContentEqualFingerprint) {
  EXPECT_EQ(Fig1G1().ContentFingerprint(), Fig1G1().ContentFingerprint());
  EXPECT_NE(Fig1G1().ContentFingerprint(), Fig1G2().ContentFingerprint());
  // Insertion order does not matter: the builder canonicalizes to CSR.
  const Graph a = MakeGraph(4, {{0, 1, 1.5}, {2, 3, -2.0}});
  const Graph b = MakeGraph(4, {{2, 3, -2.0}, {0, 1, 1.5}});
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  // A single weight bit flips it.
  const Graph c = MakeGraph(4, {{0, 1, 1.5}, {2, 3, -2.0000000001}});
  EXPECT_NE(a.ContentFingerprint(), c.ContentFingerprint());
}

TEST(GraphFingerprintTest, PairFingerprintIsOrderSensitive) {
  EXPECT_NE(PipelineGraphFingerprint(Fig1G1(), Fig1G2()),
            PipelineGraphFingerprint(Fig1G2(), Fig1G1()));
}

TEST(PipelineCacheTest, CrossSessionReuseIsBitIdenticalToPrivate) {
  const CoauthorData data = PlantedCoauthor();
  MiningRequest request;
  request.measure = Measure::kBoth;

  // Reference: a plain private-cache session.
  Result<MinerSession> reference = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(reference.ok());
  Result<MiningResponse> expected = reference->Mine(request);
  ASSERT_TRUE(expected.ok());

  auto cache = std::make_shared<PipelineCache>();
  Result<MinerSession> a =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  Result<MinerSession> b =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  ASSERT_TRUE(a.ok() && b.ok());

  Result<MiningResponse> first = a->Mine(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->telemetry.reused_cached_difference);
  EXPECT_EQ(a->num_rebuilds(), 1u);

  // Session B's very first query is served by A's preparation: no rebuild,
  // and the mined subgraphs match the private reference bit for bit.
  Result<MiningResponse> second = b->Mine(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->telemetry.reused_cached_difference);
  EXPECT_EQ(b->num_rebuilds(), 0u);
  EXPECT_EQ(SerializeSubgraphs(*first), SerializeSubgraphs(*expected));
  EXPECT_EQ(SerializeSubgraphs(*second), SerializeSubgraphs(*expected));

  const PipelineCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PipelineCacheTest, ConcurrentSessionsPrepareTheSharedDatasetOnce) {
  const CoauthorData data = PlantedCoauthor();
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;

  Result<MinerSession> reference = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(reference.ok());
  Result<MiningResponse> expected = reference->Mine(request);
  ASSERT_TRUE(expected.ok());
  const std::string expected_str = SerializeSubgraphs(*expected);

  auto cache = std::make_shared<PipelineCache>();
  constexpr int kSessions = 4;
  std::vector<std::string> mined(kSessions);
  std::vector<uint64_t> rebuilds(kSessions, 0);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        Result<MinerSession> session =
            MinerSession::Create(data.g1, data.g2, WithCache(cache));
        if (!session.ok()) {
          ++failures;
          return;
        }
        Result<MiningResponse> response = session->Mine(request);
        if (!response.ok()) {
          ++failures;
          return;
        }
        mined[i] = SerializeSubgraphs(*response);
        rebuilds[i] = session->num_rebuilds();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Exactly one session built the pipeline; every response is bit-identical
  // to the private-cache reference.
  uint64_t total_rebuilds = 0;
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(mined[i], expected_str) << "session " << i << " diverged";
    total_rebuilds += rebuilds[i];
  }
  EXPECT_EQ(total_rebuilds, 1u);
  const PipelineCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kSessions - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PipelineCacheTest, ApplyUpdateInvalidatesOnlyTheTouchedEntry) {
  auto cache = std::make_shared<PipelineCache>();
  Result<MinerSession> a =
      MinerSession::Create(Fig1G1(), Fig1G2(), WithCache(cache));
  Result<MinerSession> b =
      MinerSession::Create(Fig1G1(), Fig1G2(), WithCache(cache));
  ASSERT_TRUE(a.ok() && b.ok());

  MiningRequest request;
  request.measure = Measure::kBoth;
  Result<MiningResponse> a_before = a->Mine(request);
  Result<MiningResponse> b_before = b->Mine(request);
  ASSERT_TRUE(a_before.ok() && b_before.ok());
  EXPECT_TRUE(b_before->telemetry.reused_cached_difference);
  ASSERT_EQ(cache->stats().entries, 1u);

  // A's update redirects A to a fresh key (copy-on-write): the patch path
  // republishes A's pipeline — delta-patched — under the new fingerprint,
  // and the old entry stays resident untouched.
  ASSERT_TRUE(a->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.5).ok());
  Result<MiningResponse> a_after = a->Mine(request);
  ASSERT_TRUE(a_after.ok());
  EXPECT_TRUE(a_after->telemetry.reused_cached_difference)
      << "the republished entry must serve the post-update mine";
  EXPECT_EQ(a->num_republished_entries(), 1u);
  EXPECT_GE(cache->stats().republishes, 1u);
  EXPECT_NE(SerializeSubgraphs(*a_after), SerializeSubgraphs(*a_before));
  EXPECT_EQ(cache->stats().entries, 2u);

  // B keeps hitting its unchanged snapshot, bit-identically.
  Result<MiningResponse> b_after = b->Mine(request);
  ASSERT_TRUE(b_after.ok());
  EXPECT_TRUE(b_after->telemetry.reused_cached_difference);
  EXPECT_EQ(SerializeSubgraphs(*b_after), SerializeSubgraphs(*b_before));
  EXPECT_EQ(b->num_rebuilds(), 0u);
}

TEST(PipelineCacheTest, EvictionUnderTinyByteBudgetNeverBreaksSolves) {
  const CoauthorData data = PlantedCoauthor();

  // Reference answers for three alphas, from a plain private session.
  std::vector<MiningRequest> requests(3);
  std::vector<std::string> expected(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].measure = Measure::kGraphAffinity;
    requests[i].alpha = 1.0 + 0.5 * static_cast<double>(i);
    Result<MinerSession> reference = MinerSession::Create(data.g1, data.g2);
    ASSERT_TRUE(reference.ok());
    Result<MiningResponse> response = reference->Mine(requests[i]);
    ASSERT_TRUE(response.ok());
    expected[i] = SerializeSubgraphs(*response);
  }

  // A 1-byte budget evicts every entry the moment it is inserted, so every
  // solve runs against a snapshot that is already gone from the cache —
  // the hardest eviction/solve race. Nothing may crash or diverge.
  PipelineCacheOptions cache_options;
  cache_options.max_bytes = 1;
  auto cache = std::make_shared<PipelineCache>(cache_options);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Result<MinerSession> session =
            MinerSession::Create(data.g1, data.g2, WithCache(cache));
        if (!session.ok()) {
          ++failures;
          return;
        }
        for (int round = 0; round < 3; ++round) {
          const size_t i = (static_cast<size_t>(t) + round) % requests.size();
          Result<MiningResponse> response = session->Mine(requests[i]);
          if (!response.ok() ||
              SerializeSubgraphs(*response) != expected[i]) {
            ++failures;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const PipelineCacheStats stats = cache->stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(PipelineCacheTest, LruEvictionKeepsTheRecentlyTouchedEntry) {
  PipelineCacheOptions cache_options;
  cache_options.max_entries = 2;
  auto cache = std::make_shared<PipelineCache>(cache_options);
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), WithCache(cache));
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  auto mine_alpha = [&](double alpha) {
    request.alpha = alpha;
    Result<MiningResponse> response = session->Mine(request);
    ASSERT_TRUE(response.ok());
  };
  mine_alpha(1.0);  // A: miss
  mine_alpha(2.0);  // B: miss
  mine_alpha(1.0);  // A: hit — A becomes most recent
  mine_alpha(3.0);  // C: miss — evicts B (LRU), not A
  EXPECT_EQ(cache->stats().evictions, 1u);
  mine_alpha(1.0);  // A: still resident
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_EQ(cache->stats().misses, 3u);
  mine_alpha(2.0);  // B: was evicted, misses again
  EXPECT_EQ(cache->stats().misses, 4u);
}

TEST(PipelineCacheTest, TelemetryCountsHitsMissesAndUpgrades) {
  auto cache = std::make_shared<PipelineCache>();
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), WithCache(cache));
  ASSERT_TRUE(session.ok());

  // 1) A pure builtin average-degree mine prepares the difference only.
  MiningRequest ad;
  ad.measure = Measure::kAverageDegree;
  Result<MiningResponse> first = session->Mine(ad);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->telemetry.pipeline_cache_hits, 0u);
  EXPECT_EQ(first->telemetry.pipeline_cache_misses, 1u);
  EXPECT_GT(first->telemetry.pipeline_cache_bytes, 0u);
  EXPECT_EQ(session->num_rebuilds(), 1u);

  // 2) A graph-affinity mine on the same key upgrades copy-on-write: the
  // cached difference is reused (no rebuild), counted as an upgrade rather
  // than a hit or miss.
  MiningRequest ga;
  ga.measure = Measure::kGraphAffinity;
  Result<MiningResponse> second = session->Mine(ga);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_rebuilds(), 1u);
  PipelineCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.upgrades, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // 3) Repeats are plain hits, and the telemetry snapshot rides along.
  Result<MiningResponse> third = session->Mine(ga);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->telemetry.pipeline_cache_hits, cache->stats().hits);
  EXPECT_EQ(third->telemetry.pipeline_cache_misses, 1u);
  EXPECT_GE(cache->stats().hits, 1u);

  // 4) InvalidateCaches drops this session's entries; the next mine misses.
  session->InvalidateCaches();
  EXPECT_EQ(session->num_cached_pipelines(), 0u);
  Result<MiningResponse> fourth = session->Mine(ga);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->telemetry.pipeline_cache_misses, 2u);
  EXPECT_EQ(SerializeSubgraphs(*fourth), SerializeSubgraphs(*third));
}

TEST(PipelineCacheTest, MineAllRunsOverTheSharedCache) {
  const CoauthorData data = PlantedCoauthor();
  auto cache = std::make_shared<PipelineCache>();

  // Session A prepares two pipelines; session B's MineAll batch over the
  // same keys is then served entirely from the shared cache.
  std::vector<MiningRequest> requests(4);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].measure = Measure::kGraphAffinity;
    requests[i].alpha = i % 2 == 0 ? 1.0 : 2.0;
  }
  Result<MinerSession> a =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  ASSERT_TRUE(a.ok());
  Result<std::vector<MiningResponse>> warmup = a->MineAll(requests);
  ASSERT_TRUE(warmup.ok());
  EXPECT_EQ(a->num_rebuilds(), 2u);

  Result<MinerSession> b =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  ASSERT_TRUE(b.ok());
  Result<std::vector<MiningResponse>> batched = b->MineAll(requests);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(b->num_rebuilds(), 0u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE((*batched)[i].telemetry.reused_cached_difference);
    EXPECT_EQ(SerializeSubgraphs((*batched)[i]),
              SerializeSubgraphs((*warmup)[i]));
  }
}

TEST(PipelineCacheTest, MiningServiceSharedCacheOptionAttaches) {
  const CoauthorData data = PlantedCoauthor();
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;

  auto cache = std::make_shared<PipelineCache>();
  MiningServiceOptions service_options;
  service_options.shared_cache = cache;

  Result<MinerSession> s1 = MinerSession::Create(data.g1, data.g2);
  Result<MinerSession> s2 = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  MiningService service1(std::move(*s1), service_options);
  MiningService service2(std::move(*s2), service_options);

  Result<JobId> job1 = service1.Submit(request);
  Result<JobId> job2 = service2.Submit(request);
  ASSERT_TRUE(job1.ok() && job2.ok());
  Result<JobStatus> done1 = service1.Wait(*job1);
  Result<JobStatus> done2 = service2.Wait(*job2);
  ASSERT_TRUE(done1.ok() && done2.ok());
  ASSERT_EQ(done1->state, JobState::kDone);
  ASSERT_EQ(done2->state, JobState::kDone);

  // One service prepared, the other hit; responses are bit-identical.
  const PipelineCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(SerializeSubgraphs(done1->response),
            SerializeSubgraphs(done2->response));
}

TEST(PipelineCacheTest, ZeroCapacityPrivateCacheKeepsOnlyTheFreshPipeline) {
  // Pre-extraction, max_cached_pipelines = 0 evicted everything but the
  // pipeline just built; it must not mean "unbounded" now.
  SessionOptions options;
  options.max_cached_pipelines = 0;
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), options);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  for (const double alpha : {1.0, 2.0, 3.0}) {
    request.alpha = alpha;
    ASSERT_TRUE(session->Mine(request).ok());
    EXPECT_EQ(session->num_cached_pipelines(), 1u);
  }
}

TEST(PipelineCacheTest, ThrowingBuildBecomesStatusAndReleasesTheKey) {
  auto cache = std::make_shared<PipelineCache>();
  PipelineCacheKey key;
  key.graph_fingerprint = 11;
  bool reused = true;
  Result<PipelineCache::Snapshot> thrown = cache->GetOrPrepare(
      key, /*need_ga=*/false,
      [](const PreparedPipeline*) -> Result<PreparedPipeline> {
        throw std::runtime_error("builder exploded");
      },
      &reused);
  ASSERT_FALSE(thrown.ok());
  EXPECT_EQ(thrown.status().code(), StatusCode::kInternal);

  // The key is released, not deadlocked: the next caller builds normally.
  Result<PipelineCache::Snapshot> ok = cache->GetOrPrepare(
      key, /*need_ga=*/false,
      [](const PreparedPipeline*) -> Result<PreparedPipeline> {
        PreparedPipeline out;
        out.difference = Fig1Gd();
        return out;
      },
      &reused);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(cache->stats().entries, 1u);
}

TEST(PipelineCacheTest, KeyEqualityIsBitwiseAndAgreesWithHash) {
  PipelineCacheKey nan_key;
  nan_key.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(nan_key == nan_key) << "a NaN key must stay findable";
  PipelineCacheKey zero;
  PipelineCacheKey negative_zero;
  zero.clamp_weights_above = 0.0;
  negative_zero.clamp_weights_above = -0.0;
  EXPECT_FALSE(zero == negative_zero);
  EXPECT_NE(zero.Hash(), negative_zero.Hash());

  // A pathological key cannot corrupt the cache: repeated inserts under a
  // capacity of 1 keep finding (and evicting) the same entry.
  PipelineCacheOptions options;
  options.max_entries = 1;
  PipelineCache cache(options);
  bool reused = true;
  for (int i = 0; i < 3; ++i) {
    Result<PipelineCache::Snapshot> got = cache.GetOrPrepare(
        nan_key, /*need_ga=*/false,
        [](const PreparedPipeline*) -> Result<PreparedPipeline> {
          PreparedPipeline out;
          out.difference = Fig1Gd();
          return out;
        },
        &reused);
    ASSERT_TRUE(got.ok());
  }
  EXPECT_TRUE(reused);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PipelineCacheTest, BuildFailurePropagatesAndLeavesCacheUsable) {
  auto cache = std::make_shared<PipelineCache>();
  PipelineCacheKey key;
  key.graph_fingerprint = 7;
  bool reused = true;
  Result<PipelineCache::Snapshot> failed = cache->GetOrPrepare(
      key, /*need_ga=*/false,
      [](const PreparedPipeline*) -> Result<PreparedPipeline> {
        return Status::InvalidArgument("boom");
      },
      &reused);
  EXPECT_TRUE(failed.status().IsInvalidArgument());
  EXPECT_EQ(cache->stats().entries, 0u);

  // The key is not poisoned: a succeeding build goes through afterwards.
  Result<PipelineCache::Snapshot> ok = cache->GetOrPrepare(
      key, /*need_ga=*/false,
      [](const PreparedPipeline*) -> Result<PreparedPipeline> {
        PreparedPipeline out;
        out.difference = Fig1Gd();
        return out;
      },
      &reused);
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(cache->stats().entries, 1u);
}

// The full deterministic image of a response: the journal's byte encoding of
// its rankings plus the deterministic telemetry.
std::string ResponseBytes(const MiningResponse& response) {
  return JobJournal::EncodeResponseContent(response) +
         SerializeDeterministic(response);
}

// A small graph-affinity pipeline built straight through the cache API.
PipelineCache::Snapshot PrepareFig1(PipelineCache* cache,
                                    const PipelineCacheKey& key) {
  bool reused = false;
  Result<PipelineCache::Snapshot> snapshot = cache->GetOrPrepare(
      key, /*need_ga=*/false,
      [](const PreparedPipeline*) -> Result<PreparedPipeline> {
        PreparedPipeline out;
        out.difference = Fig1Gd();
        return out;
      },
      &reused);
  DCS_CHECK(snapshot.ok());
  return std::move(snapshot).value();
}

MiningResponse ResponseWithValue(double value) {
  MiningResponse response;
  RankedSubgraph ranked;
  ranked.vertices = {0, 1};
  ranked.value = value;
  response.average_degree.push_back(ranked);
  return response;
}

TEST(ResponseMemoTest, RepeatedRequestIsServedByteIdentically) {
  const CoauthorData data = PlantedCoauthor();
  auto cache = std::make_shared<PipelineCache>();
  Result<MinerSession> session =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;

  // Prepare the difference first, so the solve below and its repeat both
  // read reused_cached_difference = true.
  ASSERT_TRUE(session->DifferenceSnapshot(request).ok());
  Result<MiningResponse> solved = session->Mine(request);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->telemetry.response_memo_hit);
  EXPECT_GT(solved->telemetry.initializations, 0u);

  // Scheduling-only fields do not split the memo key.
  request.priority = 7;
  request.deadline_seconds = 30.0;
  request.ga_solver.parallelism = 2;
  Result<MiningResponse> memoized = session->Mine(request);
  ASSERT_TRUE(memoized.ok());
  EXPECT_TRUE(memoized->telemetry.response_memo_hit);
  EXPECT_EQ(ResponseBytes(*memoized), ResponseBytes(*solved));
  EXPECT_EQ(cache->stats().response_hits, 1u);
  EXPECT_EQ(session->num_rebuilds(), 1u);

  // A field the answer depends on is a different key.
  request.min_affinity = 1e-9;
  Result<MiningResponse> other = session->Mine(request);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->telemetry.response_memo_hit);
  EXPECT_EQ(cache->stats().response_hits, 1u);
}

TEST(ResponseMemoTest, SingleEntryCacheWithAlternatingAlphasNeverHits) {
  PipelineCacheOptions options;
  options.max_entries = 1;
  auto cache = std::make_shared<PipelineCache>(options);
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), WithCache(cache));
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  for (int i = 0; i < 6; ++i) {
    request.alpha = i % 2 == 0 ? 1.0 : 2.0;
    Result<MiningResponse> response = session->Mine(request);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->telemetry.response_memo_hit) << "request " << i;
  }
  EXPECT_EQ(cache->stats().response_hits, 0u);
  EXPECT_EQ(cache->stats().misses, 6u);
}

TEST(ResponseMemoTest, FastMathSessionsNeverServeEachOther) {
  const CoauthorData data = PlantedCoauthor();
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;

  SessionOptions fast_options;
  fast_options.fast_math = true;
  Result<MinerSession> fast_reference =
      MinerSession::Create(data.g1, data.g2, fast_options);
  Result<MinerSession> exact_reference = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(fast_reference.ok() && exact_reference.ok());
  Result<MiningResponse> fast_expected = fast_reference->Mine(request);
  Result<MiningResponse> exact_expected = exact_reference->Mine(request);
  ASSERT_TRUE(fast_expected.ok() && exact_expected.ok());

  auto cache = std::make_shared<PipelineCache>();
  fast_options.pipeline_cache = cache;
  Result<MinerSession> exact =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  Result<MinerSession> fast =
      MinerSession::Create(data.g1, data.g2, fast_options);
  ASSERT_TRUE(exact.ok() && fast.ok());
  for (int round = 0; round < 2; ++round) {
    Result<MiningResponse> exact_response = exact->Mine(request);
    Result<MiningResponse> fast_response = fast->Mine(request);
    ASSERT_TRUE(exact_response.ok() && fast_response.ok());
    // Each session hits only its own memo slot, on its second round.
    EXPECT_EQ(exact_response->telemetry.response_memo_hit, round == 1);
    EXPECT_EQ(fast_response->telemetry.response_memo_hit, round == 1);
    EXPECT_EQ(SerializeSubgraphs(*exact_response),
              SerializeSubgraphs(*exact_expected));
    EXPECT_EQ(SerializeSubgraphs(*fast_response),
              SerializeSubgraphs(*fast_expected));
  }
  // A request that opts into fast_math itself is the fast session's key.
  request.ga_solver.fast_math = true;
  Result<MiningResponse> opted_in = exact->Mine(request);
  ASSERT_TRUE(opted_in.ok());
  EXPECT_TRUE(opted_in->telemetry.response_memo_hit);
  EXPECT_EQ(SerializeSubgraphs(*opted_in), SerializeSubgraphs(*fast_expected));
}

TEST(ResponseMemoTest, OversizedResponseIsEvictedAndTheCallerKeepsIt) {
  const CoauthorData data = PlantedCoauthor();
  MiningRequest request;
  request.measure = Measure::kBoth;

  // A warm-start request is never memoized, so this cache ends up holding
  // exactly the pipeline's bytes.
  auto probe_cache = std::make_shared<PipelineCache>();
  Result<MinerSession> probe =
      MinerSession::Create(data.g1, data.g2, WithCache(probe_cache));
  ASSERT_TRUE(probe.ok());
  MiningRequest warm = request;
  warm.warm_start = true;
  Result<MiningResponse> expected = probe->Mine(warm);
  ASSERT_TRUE(expected.ok());
  const size_t pipeline_bytes = probe_cache->stats().bytes;
  ASSERT_GT(pipeline_bytes, 0u);

  // The pipeline alone fits the budget; pipeline plus memo does not.
  PipelineCacheOptions options;
  options.max_bytes = pipeline_bytes;
  auto cache = std::make_shared<PipelineCache>(options);
  Result<MinerSession> session =
      MinerSession::Create(data.g1, data.g2, WithCache(cache));
  ASSERT_TRUE(session.ok());
  for (int round = 0; round < 2; ++round) {
    Result<MiningResponse> response = session->Mine(request);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->telemetry.response_memo_hit);
    EXPECT_EQ(SerializeSubgraphs(*response), SerializeSubgraphs(*expected));
  }
  const PipelineCacheStats stats = cache->stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.response_hits, 0u);
}

TEST(ResponseMemoTest, MemoLivesExactlyAsLongAsItsSnapshot) {
  PipelineCache cache;
  PipelineCacheKey key;
  key.graph_fingerprint = 42;
  const PipelineCache::Snapshot snapshot = PrepareFig1(&cache, key);
  const size_t pipeline_bytes = cache.stats().bytes;

  cache.StoreResponse(key, snapshot, "request", ResponseWithValue(1.0));
  EXPECT_GT(cache.stats().bytes, pipeline_bytes);
  ASSERT_NE(cache.LookupResponse(key, snapshot, "request"), nullptr);
  EXPECT_EQ(cache.LookupResponse(key, snapshot, "request")
                ->average_degree.front()
                .value,
            1.0);
  EXPECT_EQ(cache.LookupResponse(key, snapshot, "other"), nullptr);
  EXPECT_EQ(cache.stats().response_hits, 2u);

  // Another snapshot of the same content is not the one solved on.
  auto twin = std::make_shared<const PreparedPipeline>(*snapshot);
  EXPECT_EQ(cache.LookupResponse(key, twin, "request"), nullptr);
  cache.StoreResponse(key, twin, "twin", ResponseWithValue(2.0));
  EXPECT_EQ(cache.LookupResponse(key, snapshot, "twin"), nullptr);

  // Replacing the entry's snapshot clears the memo and its bytes.
  cache.Publish(key, twin);
  EXPECT_EQ(cache.stats().bytes, twin->ApproxBytes());
  EXPECT_EQ(cache.LookupResponse(key, twin, "request"), nullptr);
  EXPECT_EQ(cache.LookupResponse(key, snapshot, "request"), nullptr);

  // Dropping the entry drops the memo.
  cache.StoreResponse(key, twin, "request", ResponseWithValue(3.0));
  cache.EraseFingerprint(key.graph_fingerprint);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.LookupResponse(key, twin, "request"), nullptr);
  cache.StoreResponse(key, twin, "request", ResponseWithValue(3.0));
  EXPECT_EQ(cache.stats().bytes, 0u) << "no entry, nothing to memoize on";
}

TEST(ResponseMemoTest, MemoKeepsTheMostRecentlyUsedResponses) {
  PipelineCache cache;
  PipelineCacheKey key;
  key.graph_fingerprint = 43;
  const PipelineCache::Snapshot snapshot = PrepareFig1(&cache, key);
  const size_t capacity = PipelineCache::kResponseMemoCapacity;
  for (size_t i = 0; i < capacity; ++i) {
    cache.StoreResponse(key, snapshot, std::to_string(i),
                        ResponseWithValue(static_cast<double>(i)));
  }
  // Touch the oldest, then overflow by one: the least recently used ("1")
  // goes.
  ASSERT_NE(cache.LookupResponse(key, snapshot, "0"), nullptr);
  cache.StoreResponse(key, snapshot, "new", ResponseWithValue(-1.0));
  EXPECT_EQ(cache.LookupResponse(key, snapshot, "1"), nullptr);
  for (const char* kept : {"0", "2", "3", "new"}) {
    EXPECT_NE(cache.LookupResponse(key, snapshot, kept), nullptr) << kept;
  }
  // A second store of a memoized key keeps the first response.
  cache.StoreResponse(key, snapshot, "0", ResponseWithValue(99.0));
  EXPECT_EQ(
      cache.LookupResponse(key, snapshot, "0")->average_degree.front().value,
      0.0);
  cache.Clear();
  EXPECT_EQ(cache.LookupResponse(key, snapshot, "0"), nullptr);
}

TEST(ResponseMemoTest, ConcurrentSessionsShareMemoizedResponsesBitIdentically) {
  const CoauthorData data = PlantedCoauthor();
  MiningRequest request;
  request.measure = Measure::kBoth;
  Result<MinerSession> reference = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(reference.ok());
  Result<MiningResponse> expected = reference->Mine(request);
  ASSERT_TRUE(expected.ok());
  const std::string expected_bytes =
      JobJournal::EncodeResponseContent(*expected);

  auto cache = std::make_shared<PipelineCache>();
  constexpr int kSessions = 8;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::atomic<int> memo_hits{0};
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&] {
        Result<MinerSession> session =
            MinerSession::Create(data.g1, data.g2, WithCache(cache));
        if (!session.ok()) {
          ++failures;
          return;
        }
        for (int round = 0; round < kRounds; ++round) {
          Result<MiningResponse> response = session->Mine(request);
          if (!response.ok() ||
              JobJournal::EncodeResponseContent(*response) != expected_bytes ||
              response->telemetry.initializations !=
                  expected->telemetry.initializations) {
            ++failures;
            return;
          }
          memo_hits += response->telemetry.response_memo_hit ? 1 : 0;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every session's later rounds find its own first round's store at the
  // latest.
  EXPECT_GE(memo_hits.load(), kSessions * (kRounds - 1));
  EXPECT_EQ(cache->stats().response_hits,
            static_cast<uint64_t>(memo_hits.load()));
  EXPECT_EQ(cache->stats().misses, 1u);
}

}  // namespace
}  // namespace dcs
