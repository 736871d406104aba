// ArtifactStore tests: record round trips and reopen persistence, the
// append-mostly last-record-wins directory, warm boot into a PipelineCache,
// async write-back, and the trust model — a truncated tail, a flipped bit,
// a foreign magic and a future format version must all read as absent,
// force the silent rebuild-and-overwrite path, and leave the store-warmed
// MiningResponses bit-identical to cold-built ones. Streaming updates
// write nothing back: their patched pipelines live in the cache only, and a
// restart over the post-update graphs cold-builds and writes back once.

#include "store/artifact_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "core/newsea.h"
#include "gen/coauthor.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::SerializeSubgraphs;

std::string StorePath(const char* name) {
  return ::testing::TempDir() + "artifact_store_test_" + name + ".dcs";
}

std::shared_ptr<ArtifactStore> OpenOrDie(const std::string& path) {
  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  DCS_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// A fully populated pipeline (difference + GD+ + smart bounds) over Fig. 1,
// with a key exercising every optional field.
std::pair<PipelineCacheKey, PreparedPipeline> MakeFig1Pipeline() {
  PipelineCacheKey key;
  key.graph_fingerprint = PipelineGraphFingerprint(Fig1G1(), Fig1G2());
  key.alpha = 1.25;
  key.flip = true;
  key.discretize = DiscretizeSpec{};
  key.clamp_weights_above = 3.5;
  PreparedPipeline pipeline;
  pipeline.difference = Fig1Gd();
  pipeline.positive_part = pipeline.difference.PositivePart();
  pipeline.smart_bounds = ComputeSmartInitBounds(pipeline.positive_part);
  pipeline.has_ga_artifacts = true;
  pipeline.validated_nonnegative = true;
  return {key, pipeline};
}

void ExpectPipelinesBitIdentical(const PreparedPipeline& a,
                                 const PreparedPipeline& b) {
  EXPECT_EQ(a.difference.ContentFingerprint(),
            b.difference.ContentFingerprint());
  EXPECT_EQ(a.has_ga_artifacts, b.has_ga_artifacts);
  EXPECT_EQ(a.validated_nonnegative, b.validated_nonnegative);
  if (a.has_ga_artifacts && b.has_ga_artifacts) {
    EXPECT_EQ(a.positive_part.ContentFingerprint(),
              b.positive_part.ContentFingerprint());
    EXPECT_EQ(a.smart_bounds.w, b.smart_bounds.w);
    EXPECT_EQ(a.smart_bounds.tau, b.smart_bounds.tau);
    EXPECT_EQ(a.smart_bounds.mu, b.smart_bounds.mu);
    EXPECT_EQ(a.smart_bounds.max_incident, b.smart_bounds.max_incident);
    EXPECT_EQ(a.smart_bounds.order, b.smart_bounds.order);
  }
}

TEST(ArtifactStoreTest, OpenCreatesReopenKeepsEmpty) {
  const std::string path = StorePath("open_empty");
  std::filesystem::remove(path);
  {
    auto store = OpenOrDie(path);
    EXPECT_EQ(store->stats().pipeline_records, 0u);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  auto reopened = OpenOrDie(path);
  EXPECT_EQ(reopened->stats().pipeline_records, 0u);

  ArtifactStoreOptions no_create;
  no_create.create_if_missing = false;
  Result<std::shared_ptr<ArtifactStore>> missing =
      ArtifactStore::Open(StorePath("does_not_exist"), no_create);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(ArtifactStoreTest, PipelineRoundTripAcrossReopen) {
  const std::string path = StorePath("pipeline_roundtrip");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
    Result<PreparedPipeline> same_handle = store->LoadPipeline(key);
    ASSERT_TRUE(same_handle.ok());
    ExpectPipelinesBitIdentical(*same_handle, pipeline);
  }
  auto reopened = OpenOrDie(path);
  Result<PreparedPipeline> loaded = reopened->LoadPipeline(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPipelinesBitIdentical(*loaded, pipeline);

  // A key differing in any field — here alpha's sign bit — reads as absent
  // even though it may share the same record by hash-bucket.
  PipelineCacheKey other = key;
  other.alpha = -key.alpha;
  EXPECT_FALSE(reopened->LoadPipeline(other).ok());
}

TEST(ArtifactStoreTest, NewestRecordWinsPerKey) {
  const std::string path = StorePath("last_wins");
  std::filesystem::remove(path);
  auto [key, full] = MakeFig1Pipeline();
  PreparedPipeline difference_only;
  difference_only.difference = full.difference;
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->PutPipeline(key, difference_only).ok());
    ASSERT_TRUE(store->PutPipeline(key, full).ok());
    // One directory entry, two physical records.
    EXPECT_EQ(store->stats().pipeline_records, 1u);
    EXPECT_EQ(store->stats().appended_records, 2u);
  }
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->valid_records, 2u);
  EXPECT_EQ(report->corrupt_pages, 0u);

  auto reopened = OpenOrDie(path);
  Result<PreparedPipeline> loaded = reopened->LoadPipeline(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->has_ga_artifacts);  // the newer, upgraded record
  ExpectPipelinesBitIdentical(*loaded, full);
}

TEST(ArtifactStoreTest, AsyncWriteBackLandsAfterFlush) {
  const std::string path = StorePath("async");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  {
    auto store = OpenOrDie(path);
    store->PutPipelineAsync(
        key, std::make_shared<const PreparedPipeline>(pipeline));
    store->Flush();
    EXPECT_EQ(store->stats().appended_records, 1u);
    EXPECT_EQ(store->stats().write_errors, 0u);
  }
  auto reopened = OpenOrDie(path);
  Result<PreparedPipeline> loaded = reopened->LoadPipeline(key);
  ASSERT_TRUE(loaded.ok());
  ExpectPipelinesBitIdentical(*loaded, pipeline);
}

TEST(ArtifactStoreTest, WarmBootHydratesMatchingFingerprint) {
  const std::string path = StorePath("warm_boot");
  std::filesystem::remove(path);
  auto [key_a, pipeline] = MakeFig1Pipeline();
  PipelineCacheKey key_a2 = key_a;
  key_a2.alpha = 2.0;
  PipelineCacheKey key_b = key_a;
  key_b.graph_fingerprint = key_a.graph_fingerprint + 1;
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->PutPipeline(key_a, pipeline).ok());
  ASSERT_TRUE(store->PutPipeline(key_a2, pipeline).ok());
  ASSERT_TRUE(store->PutPipeline(key_b, pipeline).ok());

  PipelineCache cache;
  EXPECT_EQ(store->WarmBootFingerprint(key_a.graph_fingerprint, &cache), 2u);
  EXPECT_EQ(cache.EntriesFor(key_a.graph_fingerprint), 2u);
  EXPECT_EQ(cache.EntriesFor(key_b.graph_fingerprint), 0u);

  PipelineCache all;
  EXPECT_EQ(store->WarmBootAll(&all), 3u);
  EXPECT_EQ(all.stats().entries, 3u);
}

// ---- facade integration ----------------------------------------------------

CoauthorData PlantedCoauthor() {
  Rng rng(20260807);
  CoauthorConfig config;
  config.num_authors = 300;
  config.emerging_sizes = {5};
  config.disappearing_sizes = {4};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  DCS_CHECK(data.ok());
  return std::move(data).value();
}

MiningRequest StandardRequest() {
  MiningRequest request;
  request.measure = Measure::kBoth;
  request.alpha = 1.0;
  request.top_k = 2;
  request.discretize = DiscretizeSpec{};
  return request;
}

// Mines `request` in a fresh session, optionally store-attached; returns
// the response and (via out-params) the session's store hits and misses
// and the store handle's corrupt-page count.
MiningResponse MineOnce(const CoauthorData& data,
                        const MiningRequest& request,
                        std::shared_ptr<ArtifactStore> store,
                        uint64_t* hits = nullptr,
                        uint64_t* misses = nullptr,
                        uint64_t* corrupt_pages = nullptr) {
  SessionOptions options;
  options.artifact_store = std::move(store);
  Result<MinerSession> session =
      MinerSession::Create(data.g1, data.g2, options);
  DCS_CHECK(session.ok()) << session.status().ToString();
  Result<MiningResponse> response = session->Mine(request);
  DCS_CHECK(response.ok()) << response.status().ToString();
  if (hits != nullptr) *hits = session->num_store_hits();
  if (misses != nullptr) *misses = session->num_store_misses();
  if (session->artifact_store() != nullptr) {
    session->artifact_store()->Flush();
    if (corrupt_pages != nullptr) {
      *corrupt_pages = session->artifact_store()->stats().corrupt_pages;
    }
  }
  return std::move(response).value();
}

TEST(ArtifactStoreSessionTest, StoreWarmedEqualsColdBuilt) {
  const std::string path = StorePath("session_warm");
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const MiningRequest request = StandardRequest();

  const MiningResponse cold = MineOnce(data, request, nullptr);

  // First store-attached run: a miss that writes the pipeline back.
  uint64_t hits = 0, misses = 0, corrupt_pages = 0;
  const MiningResponse first =
      MineOnce(data, request, OpenOrDie(path), &hits, &misses);
  EXPECT_EQ(hits, 0u);
  EXPECT_GE(misses, 1u);

  // Second run on a fresh handle: the warm boot serves the pipeline from
  // disk — and the response must be bit-identical to the cold build.
  const MiningResponse warmed = MineOnce(data, request, OpenOrDie(path),
                                        &hits, &misses, &corrupt_pages);
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(corrupt_pages, 0u);

  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(first));
  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(warmed));
}

TEST(ArtifactStoreSessionTest, MiningServiceAttachesStore) {
  const std::string path = StorePath("service");
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const MiningRequest request = StandardRequest();
  const MiningResponse cold = MineOnce(data, request, nullptr);

  auto store = OpenOrDie(path);
  {
    Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
    ASSERT_TRUE(session.ok());
    MiningServiceOptions options;
    options.artifact_store = store;
    MiningService service(std::move(*session), options);
    Result<JobId> job = service.Submit(request);
    ASSERT_TRUE(job.ok());
    Result<JobStatus> status = service.Wait(*job);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    EXPECT_EQ(SerializeSubgraphs(cold),
              SerializeSubgraphs(status->response));
  }
  store->Flush();
  EXPECT_GE(store->stats().pipeline_records, 1u);

  // A fresh service over the same store warm-boots: the store serves it.
  {
    Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
    ASSERT_TRUE(session.ok());
    MiningServiceOptions options;
    auto reopened = OpenOrDie(path);
    options.artifact_store = reopened;
    MiningService service(std::move(*session), options);
    Result<JobId> job = service.Submit(request);
    ASSERT_TRUE(job.ok());
    Result<JobStatus> status = service.Wait(*job);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    const ArtifactStoreStats stats = reopened->stats();
    EXPECT_GE(stats.loads - stats.load_misses, 1u);
    EXPECT_EQ(SerializeSubgraphs(cold),
              SerializeSubgraphs(status->response));
  }
}

// ---- streaming updates -----------------------------------------------------

// The weights one side holds after each fenced batch, folded as MinerSession
// folds them: a batch's deltas per pair summed in arrival order, then added
// to the old weight.
struct WeightLedger {
  std::map<uint64_t, double> weights;

  explicit WeightLedger(const Graph& base) {
    for (const Edge& e : base.UndirectedEdges()) {
      weights[PackVertexPair(e.u, e.v)] = e.weight;
    }
  }

  void ApplyBatch(const std::map<uint64_t, double>& batch_sums) {
    for (const auto& [key, sum] : batch_sums) weights[key] += sum;
  }

  Graph Build(VertexId n) const {
    GraphBuilder builder(n);
    for (const auto& [key, weight] : weights) {
      const VertexPair pair = UnpackVertexPair(key);
      builder.AddEdgeUnchecked(pair.u, pair.v, weight);
    }
    Result<Graph> graph = builder.Build();
    DCS_CHECK(graph.ok());
    return std::move(graph).value();
  }
};

// The benchmark's multi-tenant streaming request: top-1 and the top-3
// harvest alternate on one pipeline key.
MiningRequest StreamRequest(int index) {
  MiningRequest request;
  request.measure = Measure::kBoth;
  request.top_k = index % 2 == 0 ? 1 : 3;
  return request;
}

MiningServiceOptions StreamServiceOptions(
    std::shared_ptr<ArtifactStore> store) {
  PipelineCacheOptions cache_options;
  cache_options.max_entries = 8;
  MiningServiceOptions options;
  options.num_executors = 2;
  options.shared_cache = std::make_shared<PipelineCache>(cache_options);
  options.artifact_store = std::move(store);
  return options;
}

MiningResponse SubmitAndWait(MiningService* service, TenantId tenant,
                             const MiningRequest& request) {
  Result<JobId> job = service->Submit(tenant, request);
  DCS_CHECK(job.ok()) << job.status().ToString();
  Result<JobStatus> status = service->Wait(*job);
  DCS_CHECK(status.ok()) << status.status().ToString();
  DCS_CHECK(status->state == JobState::kDone) << status->failure.ToString();
  return std::move(status->response);
}

// A memory-only session built from scratch over the ledgers' graphs.
MiningResponse MineFromScratch(const WeightLedger& g1, const WeightLedger& g2,
                               VertexId n, const MiningRequest& request) {
  Result<MinerSession> session =
      MinerSession::Create(g1.Build(n), g2.Build(n));
  DCS_CHECK(session.ok()) << session.status().ToString();
  Result<MiningResponse> response = session->Mine(request);
  DCS_CHECK(response.ok()) << response.status().ToString();
  return std::move(response).value();
}

constexpr int kStreamBatches = 12;
constexpr int kUpdatesPerBatch = 8;

// One lifetime shaped like a streaming tenant: a store, a shared cache, two
// executors, and kStreamBatches fenced batches of kUpdatesPerBatch updates,
// each followed by a Submit/Wait. Every response must equal a from-scratch
// session over the ledgers, and once the first mine's cold build has been
// written back, no batch may append to the store: the patched pipelines
// are republished into the cache only. Leaves the post-update weights in
// the ledgers.
void RunFencedUpdateStream(const CoauthorData& data,
                           std::shared_ptr<ArtifactStore> store,
                           WeightLedger* g1, WeightLedger* g2) {
  const VertexId n = data.g1.NumVertices();
  MiningServiceOptions options = StreamServiceOptions(store);
  const std::shared_ptr<PipelineCache> cache = options.shared_cache;
  MiningService service(std::move(options));
  Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
  ASSERT_TRUE(session.ok());
  Result<TenantId> tenant = service.AddTenant(std::move(*session));
  ASSERT_TRUE(tenant.ok());

  Rng rng(20261019);
  uint64_t appended_after_first_mine = 0;
  uint64_t bytes_after_first_mine = 0;
  for (int batch = 0; batch <= kStreamBatches; ++batch) {
    if (batch > 0) {
      std::map<uint64_t, double> sums1, sums2;
      for (int k = 0; k < kUpdatesPerBatch; ++k) {
        const auto u = static_cast<VertexId>(rng.NextBounded(n));
        auto v = static_cast<VertexId>(rng.NextBounded(n - 1));
        if (v >= u) ++v;
        const bool side1 = rng.Bernoulli(0.5);
        const double delta = rng.Uniform(0.25, 1.0);
        ASSERT_TRUE(service
                        .ApplyUpdate(*tenant,
                                     side1 ? UpdateSide::kG1 : UpdateSide::kG2,
                                     u, v, delta)
                        .ok());
        (side1 ? sums1 : sums2)[PackVertexPair(u, v)] += delta;
      }
      g1->ApplyBatch(sums1);
      g2->ApplyBatch(sums2);
    }
    const MiningRequest request = StreamRequest(batch);
    const MiningResponse response =
        SubmitAndWait(&service, *tenant, request);
    EXPECT_EQ(SerializeSubgraphs(response),
              SerializeSubgraphs(MineFromScratch(*g1, *g2, n, request)))
        << "batch " << batch;
    if (batch == 0) {
      ASSERT_TRUE(store->Flush().ok());
      appended_after_first_mine = store->stats().appended_records;
      bytes_after_first_mine = store->stats().file_bytes;
      EXPECT_EQ(appended_after_first_mine, 1u);  // the cold build
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  // Every batch took the O(Δ) patch path and republished the one pipeline.
  EXPECT_EQ(cache->stats().republishes, uint64_t{kStreamBatches});
  EXPECT_EQ(store->stats().appended_records, appended_after_first_mine);
  EXPECT_EQ(store->stats().file_bytes, bytes_after_first_mine);
}

TEST(ArtifactStoreStreamingTest, FencedUpdateBatchesAppendNothing) {
  const std::string path = StorePath("stream_no_append");
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  WeightLedger g1(data.g1), g2(data.g2);
  RunFencedUpdateStream(data, OpenOrDie(path), &g1, &g2);
}

// A restart that registers the post-update graphs finds no record for them
// (the patched pipelines were never written), so it cold-builds — exactly
// once — and answers bit-identically to a memory-only session.
TEST(ArtifactStoreStreamingTest, RestartAfterUpdatesColdBuildsOnce) {
  const std::string path = StorePath("stream_restart");
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const VertexId n = data.g1.NumVertices();
  WeightLedger g1(data.g1), g2(data.g2);
  RunFencedUpdateStream(data, OpenOrDie(path), &g1, &g2);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  auto store = OpenOrDie(path);
  MiningService service(StreamServiceOptions(store));
  Result<MinerSession> session =
      MinerSession::Create(g1.Build(n), g2.Build(n));
  ASSERT_TRUE(session.ok());
  Result<TenantId> tenant = service.AddTenant(std::move(*session));
  ASSERT_TRUE(tenant.ok());
  for (int i = 0; i < 2; ++i) {
    const MiningRequest request = StreamRequest(i);
    EXPECT_EQ(SerializeSubgraphs(SubmitAndWait(&service, *tenant, request)),
              SerializeSubgraphs(MineFromScratch(g1, g2, n, request)))
        << "request " << i;
  }
  ASSERT_TRUE(store->Flush().ok());
  const ArtifactStoreStats stats = store->stats();
  EXPECT_GE(stats.load_misses, 1u);
  EXPECT_EQ(stats.appended_records, 1u);  // one key, cold-built once
  EXPECT_EQ(stats.pipeline_records, 2u);  // the first lifetime's + this one
}

// ---- corruption recovery ---------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DCS_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DCS_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  DCS_CHECK(out.good());
}

// Seeds `path` with one store-attached mine, then corrupts it via `corrupt`
// and asserts the recovery contract: the next store-attached session still
// answers bit-identically, counts corruption where expected, silently
// rebuilds, and its write-back leaves a store that passes fsck and serves
// the following session from disk again.
void ExpectRecoversFromCorruption(
    const std::string& path, bool expect_corrupt_pages,
    const std::function<void(const std::string&)>& corrupt) {
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const MiningRequest request = StandardRequest();
  const MiningResponse cold = MineOnce(data, request, nullptr);
  MineOnce(data, request, OpenOrDie(path));  // seed the store

  corrupt(path);

  uint64_t hits = 0, misses = 0, corrupt_pages = 0;
  const MiningResponse recovered = MineOnce(data, request, OpenOrDie(path),
                                            &hits, &misses, &corrupt_pages);
  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(recovered));
  EXPECT_GE(misses, 1u) << "corrupt store should force a rebuild";
  if (expect_corrupt_pages) {
    EXPECT_GE(corrupt_pages, 1u);
  }

  // The rebuild-and-overwrite pass must leave a clean store...
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->superblock_ok);
  EXPECT_EQ(report->corrupt_pages, 0u);
  EXPECT_GE(report->valid_records, 1u);

  // ...that the next session warm-boots from, bit-identically.
  const MiningResponse rewarmed =
      MineOnce(data, request, OpenOrDie(path), &hits, &misses);
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(rewarmed));
}

TEST(ArtifactStoreCorruptionTest, TruncatedFile) {
  ExpectRecoversFromCorruption(
      StorePath("truncated"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        // Chop into the middle of the last record: the scan keeps the valid
        // prefix and discards the torn tail.
        const uintmax_t size = std::filesystem::file_size(path);
        std::filesystem::resize_file(path, size - size / 3);
      });
}

TEST(ArtifactStoreCorruptionTest, SingleFlippedBit) {
  ExpectRecoversFromCorruption(
      StorePath("bitflip"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        // One bit inside the LIVE tail record (the newest pipeline, the one
        // a warm boot must load). Rot in a superseded record is invisible to
        // sessions by design — only fsck reports it — so the recovery
        // contract is exercised on a record that is actually read.
        std::string bytes = ReadFileBytes(path);
        ASSERT_GT(bytes.size(), 200u);
        bytes[bytes.size() - 5] ^= 0x10;
        WriteFileBytes(path, bytes);
      });
}

TEST(ArtifactStoreCorruptionTest, WrongMagic) {
  ExpectRecoversFromCorruption(
      StorePath("wrong_magic"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        std::string bytes = ReadFileBytes(path);
        ASSERT_GE(bytes.size(), 8u);
        bytes.replace(0, 8, "NOTSTORE");
        WriteFileBytes(path, bytes);
      });
}

TEST(ArtifactStoreCorruptionTest, FutureFormatVersion) {
  ExpectRecoversFromCorruption(
      StorePath("future_version"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        // A *checksum-valid* superblock from the future: the version gate
        // itself — not the checksum — must reject it.
        std::string bytes = ReadFileBytes(path);
        ASSERT_GE(bytes.size(), 32u);
        const uint32_t future = ArtifactStore::kFormatVersion + 1;
        bytes.replace(8, 4,
                      std::string(reinterpret_cast<const char*>(&future), 4));
        const uint64_t checksum = PageChecksum(bytes.data(), 16);
        bytes.replace(16, 8,
                      std::string(reinterpret_cast<const char*>(&checksum), 8));
        WriteFileBytes(path, bytes);
      });
}

TEST(ArtifactStoreCorruptionTest, FsckReportsDamage) {
  const std::string path = StorePath("fsck_damage");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  PipelineCacheKey earlier_key = key;
  earlier_key.alpha = 2.0;
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->PutPipeline(earlier_key, pipeline).ok());
    ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 4] ^= 0x01;  // rot inside the last record
  WriteFileBytes(path, bytes);

  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->superblock_ok);
  EXPECT_EQ(report->valid_records, 1u);
  EXPECT_EQ(report->corrupt_pages, 1u);
  EXPECT_GT(report->unreliable_tail_bytes, 0u);

  // The damaged record reads as absent through a handle, and is counted.
  auto store = OpenOrDie(path);
  EXPECT_FALSE(store->LoadPipeline(key).ok());
  EXPECT_TRUE(store->LoadPipeline(earlier_key).ok());
  EXPECT_GE(store->stats().corrupt_pages, 1u);
}

TEST(ArtifactStoreTest, ListRecordsOffsetAscending) {
  const std::string path = StorePath("ls");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  PipelineCacheKey first_key = key;
  first_key.alpha = 2.0;
  PipelineCacheKey second_key = key;
  second_key.alpha = 3.0;
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->PutPipeline(first_key, pipeline).ok());
  ASSERT_TRUE(store->PutPipeline(second_key, pipeline).ok());
  ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
  const std::vector<ArtifactRecordInfo> records = store->ListRecords();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, first_key.Hash());
  EXPECT_EQ(records[1].key, second_key.Hash());
  EXPECT_EQ(records[2].key, key.Hash());
  EXPECT_LT(records[0].offset, records[1].offset);
  EXPECT_LT(records[1].offset, records[2].offset);
}

}  // namespace
}  // namespace dcs
