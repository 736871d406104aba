// Chaos harness (ctest label `chaos`): the failure-domain acceptance bar.
//
// A MiningService is stormed with injected store faults, deadline
// expirations and cancellations at once, and must hold the robustness
// contract: every job reaches a terminal state, nothing crashes or leaks,
// completed jobs are bit-identical to a fault-free reference solve, the
// degradation ladder walks healthy → degraded → store-offline instead of
// failing mining, and the store file stays fsck-clean through everything —
// including a cancellation racing the async write-back mid-append. Two
// smaller cases pin what the hooks cost: disarmed, they add < 1% to a mine;
// under a recoverable store storm, retries absorb every fault bit-identically.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining_service.h"
#include "api/pipeline_cache.h"
#include "gen/coauthor.h"
#include "gen/random_graphs.h"
#include "store/artifact_store.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::SerializeSubgraphs;

// Every test arms the process-global fault registry; each must disarm it
// for whatever suite runs next in this binary.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Global().Reset(); }
};

MinerSession MustCreate(const Graph& g1, const Graph& g2,
                        SessionOptions options = {}) {
  Result<MinerSession> session = MinerSession::Create(g1, g2, options);
  DCS_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

std::shared_ptr<ArtifactStore> OpenOrDie(const std::string& path) {
  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  DCS_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// A deterministic function of (rng) producing a mixed request, mirroring
// the stress suite's distribution.
MiningRequest RandomRequest(Rng* rng) {
  MiningRequest request;
  switch (rng->NextBounded(3)) {
    case 0:
      request.measure = Measure::kGraphAffinity;
      break;
    case 1:
      request.measure = Measure::kBoth;
      break;
    default:
      request.measure = Measure::kAverageDegree;
      break;
  }
  request.alpha = 1.0 + static_cast<double>(rng->NextBounded(3));
  request.flip = rng->NextBounded(4) == 0;
  request.top_k = rng->NextBounded(5) == 0 ? 2 : 1;
  request.ga_solver.parallelism = 0;  // auto: share the session budget
  return request;
}

std::pair<Graph, Graph> ChaosGraphs() {
  Rng rng(4242);
  Result<Graph> g2 = RandomSignedGraph(/*n=*/120, /*m=*/900,
                                       /*positive_fraction=*/0.7,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(g2.ok()) << g2.status().ToString();
  return {MakeGraph(120, {}), std::move(*g2)};
}

// The full storm: 48 scripted jobs submitted from 3 racing threads while a
// canceller fires at random targets, with every store operation failing,
// pipeline builds sporadically erroring, pool dispatch sporadically
// throwing, and a slice of jobs carrying already-hopeless deadlines.
TEST_F(ChaosTest, StormStaysTerminalAndBitIdentical) {
  const auto [g1, g2] = ChaosGraphs();
  constexpr size_t kJobs = 48;
  Rng rng(20180607);

  std::vector<MiningRequest> requests;
  std::vector<bool> try_cancel;
  for (size_t i = 0; i < kJobs; ++i) {
    MiningRequest request = RandomRequest(&rng);
    // Every 8th job is submitted with an unmeetable deadline — it must die
    // kFailed/kDeadlineExceeded, never hang and never return a partial
    // result.
    if (i % 8 == 3) request.deadline_seconds = 1e-6;
    requests.push_back(std::move(request));
    try_cancel.push_back(rng.NextBounded(6) == 0);
  }

  // Fault-free reference for every request (requests are pure functions of
  // the graphs — no streaming updates in this storm).
  std::vector<std::string> expected;
  {
    MinerSession reference = MustCreate(g1, g2);
    for (size_t i = 0; i < kJobs; ++i) {
      MiningRequest plain = requests[i];
      plain.deadline_seconds = 0.0;
      Result<MiningResponse> mined = reference.Mine(plain);
      ASSERT_TRUE(mined.ok()) << "reference #" << i << ": "
                              << mined.status().ToString();
      expected.push_back(SerializeSubgraphs(*mined));
    }
  }

  const std::string path = ::testing::TempDir() + "chaos_storm.dcs";
  std::filesystem::remove(path);
  std::shared_ptr<ArtifactStore> store = OpenOrDie(path);

  // Arm the storm: every store append fails outright (driving the ladder to
  // store-offline at the session threshold), flock degrades to lockless,
  // reads fail half the time, a bounded burst of pipeline builds error, and
  // two pool dispatches throw.
  ASSERT_TRUE(FaultInjection::Global()
                  .ArmText("store.append;"
                           "store.flock:every=2;"
                           "store.read:prob=0.5,seed=11;"
                           "cache.build:every=5,times=3;"
                           "pool.dispatch:every=37,times=2")
                  .ok());

  MiningServiceOptions service_options;
  service_options.artifact_store = store;
  MiningService service(MustCreate(g1, g2), service_options);

  // Atomic slots: the canceller spin-reads each id while its submitter is
  // still publishing them.
  std::vector<std::atomic<JobId>> ids(kJobs);
  {
    // 3 submitter threads racing Submit, plus a canceller hammering its
    // scripted targets as soon as their ids appear.
    constexpr size_t kSubmitters = 3;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < kJobs; i += kSubmitters) {
          Result<JobId> id = service.Submit(requests[i]);
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          ids[i].store(*id, std::memory_order_release);
        }
      });
    }
    threads.emplace_back([&] {
      for (size_t i = 0; i < kJobs; ++i) {
        if (!try_cancel[i]) continue;
        while (ids[i].load(std::memory_order_acquire) == 0) {
          std::this_thread::yield();
        }
        (void)service.Cancel(ids[i].load(std::memory_order_relaxed));
      }
    });
    for (std::thread& thread : threads) thread.join();
  }

  size_t done = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  size_t deadline_failed = 0;
  for (size_t i = 0; i < kJobs; ++i) {
    Result<JobStatus> status = service.Wait(ids[i].load());
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_TRUE(status->terminal()) << "job #" << i << " not terminal";
    switch (status->state) {
      case JobState::kDone:
        ++done;
        // The heart of the contract: a completed job under the storm is
        // bit-identical to the fault-free reference.
        EXPECT_EQ(SerializeSubgraphs(status->response), expected[i])
            << "job #" << i << " diverged under injected faults";
        break;
      case JobState::kFailed: {
        ++failed;
        const Status& failure = status->failure;
        EXPECT_TRUE(failure.IsDeadlineExceeded() || failure.IsIoError() ||
                    failure.code() == StatusCode::kInternal)
            << "job #" << i << " unexpected failure: " << failure.ToString();
        if (failure.IsDeadlineExceeded()) ++deadline_failed;
        break;
      }
      case JobState::kCancelled:
        ++cancelled;
        break;
      default:
        FAIL() << "job #" << i << " in non-terminal state";
    }
  }
  EXPECT_EQ(done + failed + cancelled, kJobs);
  // The storm must not have failed everything: deadline-free, uncancelled
  // jobs survive store faults by design.
  EXPECT_GE(done, kJobs / 4);
  // Every unmeetable-deadline job that was not cancelled first died with
  // kDeadlineExceeded.
  EXPECT_GE(deadline_failed, 1u);
  EXPECT_EQ(service.num_deadline_exceeded(),
            static_cast<uint64_t>(deadline_failed));

  // The ladder ran its full course: write-backs failed, the threshold
  // tripped, the store was detached — and mining kept answering above.
  EXPECT_EQ(service.health(), HealthState::kStoreOffline);
  EXPECT_GE(service.num_store_write_errors(), kStoreFailureThreshold);
  EXPECT_GE(service.num_health_transitions(), 1u);

  // No partial/torn on-disk state: an injected append fails before any byte
  // is written, so the file must fsck clean (whatever made it in is valid).
  FaultInjection::Global().Reset();
  store.reset();
  Result<ArtifactFsckReport> fsck = ArtifactStore::Fsck(path);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_TRUE(fsck->superblock_ok);
  EXPECT_EQ(fsck->corrupt_pages, 0u);
  std::filesystem::remove(path);
}

// Deadline semantics in isolation: a job expiring while queued behind a
// slow build fails without ever running; one expiring mid-run is stopped by
// the watchdog's token; and the session answers the next job untouched.
TEST_F(ChaosTest, DeadlineExpiryWhileQueuedAndWhileRunning) {
  const Graph g1 = Fig1G1();
  const Graph g2 = Fig1G2();

  MiningRequest slow;  // cold pipeline → delayed build below
  slow.measure = Measure::kBoth;
  MiningRequest expired = slow;
  expired.deadline_seconds = 0.01;
  MiningRequest mid_run = slow;
  mid_run.alpha = 2.0;  // distinct pipeline: builds cold (and slow) again
  mid_run.deadline_seconds = 0.02;

  std::string reference_serialized;
  {
    MinerSession reference = MustCreate(g1, g2);
    Result<MiningResponse> mined = reference.Mine(slow);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    reference_serialized = SerializeSubgraphs(*mined);
  }

  // Delay-only injection: every cold pipeline build stalls 60ms without
  // failing, so deadlines of 10–20ms reliably expire against it.
  ASSERT_TRUE(
      FaultInjection::Global().ArmText("cache.build:delay_ms=60,fail=0").ok());

  MiningService service(MustCreate(g1, g2));

  // Job A occupies the executor with the slow build; job B's 10ms deadline
  // expires while it waits behind A.
  Result<JobId> a = service.Submit(slow);
  Result<JobId> b = service.Submit(expired);
  ASSERT_TRUE(a.ok() && b.ok());
  Result<JobStatus> a_status = service.Wait(*a);
  Result<JobStatus> b_status = service.Wait(*b);
  ASSERT_TRUE(a_status.ok() && b_status.ok());
  EXPECT_EQ(a_status->state, JobState::kDone);
  EXPECT_EQ(SerializeSubgraphs(a_status->response), reference_serialized);
  EXPECT_EQ(b_status->state, JobState::kFailed);
  EXPECT_TRUE(b_status->failure.IsDeadlineExceeded())
      << b_status->failure.ToString();
  EXPECT_EQ(b_status->run_seconds, 0.0);  // guaranteed to never start

  // Job C starts immediately (queue empty) and its 20ms deadline fires
  // mid-build; the solve aborts at its first cancellation checkpoint with
  // no partial result.
  Result<JobId> c = service.Submit(mid_run);
  ASSERT_TRUE(c.ok());
  Result<JobStatus> c_status = service.Wait(*c);
  ASSERT_TRUE(c_status.ok());
  EXPECT_EQ(c_status->state, JobState::kFailed);
  EXPECT_TRUE(c_status->failure.IsDeadlineExceeded())
      << c_status->failure.ToString();
  EXPECT_EQ(service.num_deadline_exceeded(), 2u);

  // The session survived both expirations: the same request without a
  // deadline completes bit-identically (the slow pipeline is cached by A's
  // run, so no build delay applies).
  Result<JobId> d = service.Submit(slow);
  ASSERT_TRUE(d.ok());
  Result<JobStatus> d_status = service.Wait(*d);
  ASSERT_TRUE(d_status.ok());
  EXPECT_EQ(d_status->state, JobState::kDone);
  EXPECT_EQ(SerializeSubgraphs(d_status->response), reference_serialized);
}

// The satellite race: Cancel() lands while the store's writer thread is
// mid-append (injected 25ms latency inside the write-back). The job must
// terminate cleanly, the session must stay reusable, and the store file
// must fsck clean with the record either fully present or fully absent.
TEST_F(ChaosTest, CancelRacingAsyncWriteBackLeavesStoreClean) {
  const Graph g1 = Fig1G1();
  const Graph g2 = Fig1G2();
  MiningRequest request;
  request.measure = Measure::kBoth;

  std::string reference_serialized;
  {
    MinerSession reference = MustCreate(g1, g2);
    Result<MiningResponse> mined = reference.Mine(request);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    reference_serialized = SerializeSubgraphs(*mined);
  }

  const std::string path = ::testing::TempDir() + "chaos_cancel_race.dcs";
  std::filesystem::remove(path);
  std::shared_ptr<ArtifactStore> store = OpenOrDie(path);

  // Delay-only: appends succeed but take 25ms, widening the window in which
  // the cancellation races the in-flight write-back.
  ASSERT_TRUE(
      FaultInjection::Global().ArmText("store.append:delay_ms=25,fail=0").ok());

  MiningServiceOptions service_options;
  service_options.artifact_store = store;
  {
    MiningService service(MustCreate(g1, g2), service_options);
    Result<JobId> raced = service.Submit(request);
    ASSERT_TRUE(raced.ok());
    // Fire the cancel as fast as possible; whether it beats the solve is
    // the race under test — both outcomes must leave a clean store.
    (void)service.Cancel(*raced);
    Result<JobStatus> raced_status = service.Wait(*raced);
    ASSERT_TRUE(raced_status.ok());
    ASSERT_TRUE(raced_status->terminal());

    // Session reusable: the identical request completes bit-identically.
    Result<JobId> retry = service.Submit(request);
    ASSERT_TRUE(retry.ok());
    Result<JobStatus> retry_status = service.Wait(*retry);
    ASSERT_TRUE(retry_status.ok());
    EXPECT_EQ(retry_status->state, JobState::kDone);
    EXPECT_EQ(SerializeSubgraphs(retry_status->response),
              reference_serialized);
    EXPECT_EQ(service.health(), HealthState::kHealthy);
  }

  // Settle the delayed write-backs; nothing failed, so Flush reports OK.
  EXPECT_TRUE(store->Flush().ok());
  EXPECT_TRUE(store->last_write_error().ok());
  FaultInjection::Global().Reset();
  store.reset();
  Result<ArtifactFsckReport> fsck = ArtifactStore::Fsck(path);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_TRUE(fsck->superblock_ok);
  EXPECT_EQ(fsck->corrupt_pages, 0u);
  EXPECT_GE(fsck->valid_records, 1u);  // the graphs and/or the pipeline
  std::filesystem::remove(path);
}

// The multi-tenant scheduler storm: four tenants over distinct snapshots
// share two executors, a shared worker pool and a failing artifact store
// while store faults, sporadic pool-dispatch throws, hopeless deadlines and
// racing cancellations all land at once. The scheduler contract under
// chaos: every job of every tenant reaches a terminal state, and every
// kDone job is bit-identical to a fault-free single-tenant reference — the
// storm may starve or kill jobs, but never corrupt a neighbors' answers.
TEST_F(ChaosTest, MultiTenantSchedulerStormStaysTerminalAndIsolated) {
  constexpr size_t kTenants = 4;
  constexpr size_t kJobsPerTenant = 12;

  std::vector<std::pair<Graph, Graph>> pairs;
  for (size_t t = 0; t < kTenants; ++t) {
    Rng rng(6100 + t);
    Result<Graph> g2 = RandomSignedGraph(/*n=*/90, /*m=*/600,
                                         /*positive_fraction=*/0.7,
                                         /*magnitude_lo=*/0.5,
                                         /*magnitude_hi=*/3.0, &rng);
    ASSERT_TRUE(g2.ok());
    pairs.emplace_back(MakeGraph(90, {}), std::move(*g2));
  }

  // Per-tenant scripts + fault-free single-tenant references.
  std::vector<std::vector<MiningRequest>> scripts(kTenants);
  std::vector<std::vector<bool>> try_cancel(kTenants);
  std::vector<std::vector<std::string>> expected(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    Rng rng(7300 + t);
    MinerSession reference = MustCreate(pairs[t].first, pairs[t].second);
    for (size_t i = 0; i < kJobsPerTenant; ++i) {
      MiningRequest request = RandomRequest(&rng);
      request.priority = static_cast<int32_t>(rng.NextBounded(3)) - 1;
      // A slice of every tenant's jobs carries an unmeetable deadline.
      if (i % 6 == 2) request.deadline_seconds = 1e-6;
      scripts[t].push_back(request);
      try_cancel[t].push_back(rng.NextBounded(6) == 0);
      MiningRequest plain = request;
      plain.deadline_seconds = 0.0;
      Result<MiningResponse> mined = reference.Mine(plain);
      ASSERT_TRUE(mined.ok());
      expected[t].push_back(SerializeSubgraphs(*mined));
    }
  }

  const std::string path = ::testing::TempDir() + "chaos_mt_storm.dcs";
  std::filesystem::remove(path);
  std::shared_ptr<ArtifactStore> store = OpenOrDie(path);

  ASSERT_TRUE(FaultInjection::Global()
                  .ArmText("store.append;"
                           "store.flock:every=2;"
                           "store.read:prob=0.5,seed=23;"
                           "cache.build:every=7,times=3;"
                           "pool.dispatch:every=41,times=2")
                  .ok());

  MiningServiceOptions service_options;
  service_options.num_executors = 2;
  service_options.artifact_store = store;
  service_options.shared_cache = std::make_shared<PipelineCache>();
  service_options.worker_pool =
      std::make_shared<ThreadPool>(ThreadPool::DefaultConcurrency() - 1);
  MiningService service(service_options);
  for (auto& [g1, g2] : pairs) {
    Result<TenantId> tenant = service.AddTenant(MustCreate(g1, g2));
    ASSERT_TRUE(tenant.ok());
  }

  // Atomic slots, as in the single-tenant storm: the canceller spin-reads
  // ids the per-tenant submitters are still publishing.
  std::vector<std::vector<std::atomic<JobId>>> ids(kTenants);
  for (auto& row : ids) row = std::vector<std::atomic<JobId>>(kJobsPerTenant);
  {
    // One submitter per tenant plus a canceller racing all four queues.
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kJobsPerTenant; ++i) {
          Result<JobId> id =
              service.Submit(static_cast<TenantId>(t), scripts[t][i]);
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          ids[t][i].store(*id, std::memory_order_release);
        }
      });
    }
    threads.emplace_back([&] {
      for (size_t i = 0; i < kJobsPerTenant; ++i) {
        for (size_t t = 0; t < kTenants; ++t) {
          if (!try_cancel[t][i]) continue;
          while (ids[t][i].load(std::memory_order_acquire) == 0) {
            std::this_thread::yield();
          }
          (void)service.Cancel(ids[t][i].load(std::memory_order_relaxed));
        }
      }
    });
    for (std::thread& thread : threads) thread.join();
  }

  size_t done = 0, failed = 0, cancelled = 0, deadline_failed = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < kJobsPerTenant; ++i) {
      Result<JobStatus> status = service.Wait(ids[t][i].load());
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      ASSERT_TRUE(status->terminal())
          << "tenant " << t << " job " << i << " not terminal";
      EXPECT_EQ(status->tenant, t);
      switch (status->state) {
        case JobState::kDone:
          ++done;
          EXPECT_EQ(SerializeSubgraphs(status->response), expected[t][i])
              << "tenant " << t << " job " << i
              << " diverged under injected faults";
          break;
        case JobState::kFailed: {
          ++failed;
          const Status& failure = status->failure;
          EXPECT_TRUE(failure.IsDeadlineExceeded() || failure.IsIoError() ||
                      failure.code() == StatusCode::kInternal)
              << "tenant " << t << " job " << i
              << " unexpected failure: " << failure.ToString();
          if (failure.IsDeadlineExceeded()) ++deadline_failed;
          break;
        }
        case JobState::kCancelled:
          ++cancelled;
          break;
        default:
          FAIL() << "tenant " << t << " job " << i << " in non-terminal state";
      }
    }
  }
  EXPECT_EQ(done + failed + cancelled, kTenants * kJobsPerTenant);
  EXPECT_GE(done, kTenants * kJobsPerTenant / 4);
  EXPECT_GE(deadline_failed, 1u);
  // Per-tenant accounting stays exact under the storm.
  uint64_t stats_terminal = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    Result<TenantStats> stats = service.tenant_stats(static_cast<TenantId>(t));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->submitted, kJobsPerTenant);
    EXPECT_EQ(stats->completed + stats->failed + stats->cancelled,
              kJobsPerTenant);
    stats_terminal += stats->completed + stats->failed + stats->cancelled;
  }
  EXPECT_EQ(stats_terminal, kTenants * kJobsPerTenant);
  // Whether the ladder tripped here is timing-dependent (write-backs are
  // async and the shared cache dedupes builds across tenants) — the
  // single-tenant storm above pins the ladder semantics down. This storm
  // only requires the aggregate to be a valid worst-rung snapshot, which
  // the accounting above plus terminality already witnessed.

  FaultInjection::Global().Reset();
  store.reset();
  Result<ArtifactFsckReport> fsck = ArtifactStore::Fsck(path);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_TRUE(fsck->superblock_ok);
  EXPECT_EQ(fsck->corrupt_pages, 0u);
  std::filesystem::remove(path);
}

// ---- what the hooks cost disarmed, and what a recoverable storm costs -------

// A small planted co-author pair: large enough that one mine dwarfs a hook
// crossing, small enough for the chaos label's time budget.
CoauthorData HookCostPair() {
  Rng rng(20180607);
  CoauthorConfig config;
  config.num_authors = 600;
  config.emerging_sizes = {4, 7};
  config.disappearing_sizes = {6, 2, 8};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  DCS_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

struct StoreCycle {
  double wall_ms = 0.0;
  uint64_t injected_faults = 0;
  uint64_t store_retries = 0;
  uint64_t store_write_errors = 0;
  uint64_t hook_hits = 0;  // crossings of the five store/cache/pool sites
  Status flushed;
  std::string mined;  // every response, for the bit-identity check
};

// One process lifetime: open the store (when `store_path` is non-empty),
// create a session and answer two DCSGA requests (two pipeline keys, so the
// store sees several append and read crossings). The async write-back
// settles outside the timed window but before the counters are read.
StoreCycle RunStoreCycle(const CoauthorData& data,
                         const std::string& store_path) {
  StoreCycle out;
  WallTimer timer;
  SessionOptions options;
  if (!store_path.empty()) options.artifact_store = OpenOrDie(store_path);
  MinerSession session = MustCreate(data.g1, data.g2, options);
  for (const double alpha : {1.0, 2.0}) {
    MiningRequest request;
    request.measure = Measure::kGraphAffinity;
    request.alpha = alpha;
    Result<MiningResponse> response = session.Mine(request);
    DCS_CHECK(response.ok()) << response.status().ToString();
    out.mined += SerializeSubgraphs(*response) + "#";
  }
  out.wall_ms = timer.Millis();
  if (options.artifact_store != nullptr) {
    out.flushed = options.artifact_store->Flush();
    const ArtifactStoreStats stats = options.artifact_store->stats();
    out.store_retries = stats.io_retries;
    out.store_write_errors = stats.write_errors;
  }
  FaultInjection& faults = FaultInjection::Global();
  out.injected_faults = faults.total_fires();
  for (const char* site :
       {fault_sites::kStoreRead, fault_sites::kStoreAppend,
        fault_sites::kStoreFlock, fault_sites::kCacheBuild,
        fault_sites::kPoolDispatch}) {
    out.hook_hits += faults.hits(site);
  }
  return out;
}

// The cost of shipping the hooks: every site armed with prob=0 counts its
// crossings without ever firing, and crossings × the measured disarmed
// FaultHit cost (one relaxed atomic load) must stay under 1% of the wall of
// the same cycle run hook-free.
TEST_F(ChaosTest, DisarmedHooksCostUnderOnePercentOfAMine) {
  const CoauthorData data = HookCostPair();
  FaultInjection::Global().Reset();
  const StoreCycle baseline = RunStoreCycle(data, "");

  constexpr uint64_t kCalls = 2'000'000;
  ASSERT_FALSE(FaultInjection::armed());
  uint64_t fired = 0;
  WallTimer timer;
  for (uint64_t i = 0; i < kCalls; ++i) {
    fired += FaultHit("chaos.noop") ? 1 : 0;
  }
  const double ns_per_call = timer.Seconds() * 1e9 / kCalls;
  ASSERT_EQ(fired, 0u) << "disarmed registry fired";

  const std::string path = ::testing::TempDir() + "chaos_hook_cost.dcs";
  std::filesystem::remove(path);
  ASSERT_TRUE(FaultInjection::Global()
                  .ArmText("store.read:prob=0;store.append:prob=0;"
                           "store.flock:prob=0;cache.build:prob=0;"
                           "pool.dispatch:prob=0")
                  .ok());
  const StoreCycle counted = RunStoreCycle(data, path);
  FaultInjection::Global().Reset();
  std::filesystem::remove(path);

  EXPECT_TRUE(counted.flushed.ok()) << counted.flushed.ToString();
  EXPECT_EQ(counted.mined, baseline.mined);
  EXPECT_GT(counted.hook_hits, 0u) << "counted cycle saw no hooks";
  EXPECT_EQ(counted.injected_faults, 0u) << "prob=0 fired";
  ASSERT_GT(baseline.wall_ms, 0.0);
  const double overhead_pct = 100.0 *
                              (static_cast<double>(counted.hook_hits) *
                               ns_per_call / 1e6) /
                              baseline.wall_ms;
  EXPECT_LT(overhead_pct, 1.0)
      << counted.hook_hits << " crossings x " << ns_per_call << " ns vs a "
      << baseline.wall_ms << " ms baseline";
}

// The recoverable storm: every other append and flock and every third read
// fail. Bounded retry absorbs the read/append faults and the flock degrades
// to lockless, so every request still answers bit-identically and no fault
// reaches the store's write-error count.
TEST_F(ChaosTest, RecoverableStoreStormIsAbsorbedBitIdentically) {
  const CoauthorData data = HookCostPair();
  FaultInjection::Global().Reset();
  const StoreCycle baseline = RunStoreCycle(data, "");

  const std::string path = ::testing::TempDir() + "chaos_recoverable.dcs";
  std::filesystem::remove(path);
  ASSERT_TRUE(FaultInjection::Global()
                  .ArmText("store.append:every=2;store.read:every=3;"
                           "store.flock:every=2")
                  .ok());
  const StoreCycle faulted = RunStoreCycle(data, path);
  FaultInjection::Global().Reset();
  std::filesystem::remove(path);

  EXPECT_TRUE(faulted.flushed.ok())
      << "write-back failed past the retry budget: "
      << faulted.flushed.ToString();
  EXPECT_EQ(faulted.mined, baseline.mined);
  EXPECT_GT(faulted.injected_faults, 0u) << "storm never fired";
  EXPECT_GT(faulted.store_retries, 0u) << "no retry was needed";
  EXPECT_EQ(faulted.store_write_errors, 0u)
      << "a recoverable fault leaked into a write error";
}

}  // namespace
}  // namespace dcs
