// MiningService: the submit/poll/wait/cancel state machine, update fencing,
// failure propagation, cancellation semantics, and a moderate many-jobs run
// asserting every finished job is bit-identical to a fresh synchronous
// solve (the big mixed stress lives in tests/stress/).

#include "api/mining_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/job_journal.h"
#include "api/miner_session.h"
#include "api/pipeline_cache.h"
#include "api/solver_registry.h"
#include "gen/random_graphs.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::MakeGraph;

// --- test solvers ---------------------------------------------------------
// Registered once per process; tests reset the globals they use.

std::atomic<bool> g_release{false};
std::atomic<int> g_blocking_runs{0};
std::atomic<int> g_counting_runs{0};

// Parks until released (or cancelled), making queue states observable.
Result<std::vector<RankedSubgraph>> BlockingSolver(const SolverContext& ctx,
                                                   const MiningRequest&,
                                                   MiningTelemetry*) {
  g_blocking_runs.fetch_add(1);
  while (!g_release.load()) {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      return Status::Cancelled("blocking solver cancelled");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::vector<RankedSubgraph>{};
}

Result<std::vector<RankedSubgraph>> CountingSolver(const SolverContext&,
                                                   const MiningRequest&,
                                                   MiningTelemetry*) {
  g_counting_runs.fetch_add(1);
  return std::vector<RankedSubgraph>{};
}

Result<std::vector<RankedSubgraph>> ThrowingServiceSolver(
    const SolverContext&, const MiningRequest&, MiningTelemetry*) {
  throw std::runtime_error("service solver boom");
}

// Runs "forever" until its token fires — the deterministic mid-run
// cancellation target.
Result<std::vector<RankedSubgraph>> CancelWaitingSolver(
    const SolverContext& ctx, const MiningRequest&, MiningTelemetry*) {
  WallTimer guard;
  while (ctx.cancel == nullptr || !ctx.cancel->cancelled()) {
    if (guard.Seconds() > 30.0) {
      return Status::Internal("cancel-waiting solver was never cancelled");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Cancelled("solver observed the token");
}

void RegisterTestSolvers() {
  static const bool registered = [] {
    auto& registry = SolverRegistry::Global();
    return registry.Register("blocking-solver", &BlockingSolver).ok() &&
           registry.Register("counting-solver", &CountingSolver).ok() &&
           registry.Register("cancel-waiting", &CancelWaitingSolver).ok() &&
           registry.Register("service-throwing", &ThrowingServiceSolver).ok();
  }();
  ASSERT_TRUE(registered);
}

// --- helpers --------------------------------------------------------------

MinerSession MustCreate(Graph g1, Graph g2, SessionOptions options = {}) {
  Result<MinerSession> session =
      MinerSession::Create(std::move(g1), std::move(g2), options);
  DCS_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

// Spin until the job reaches `state` (or the deadline trips).
bool WaitForState(const MiningService& service, JobId id, JobState state) {
  WallTimer timer;
  while (timer.Seconds() < 30.0) {
    Result<JobStatus> polled = service.Poll(id);
    if (!polled.ok()) return false;
    if (polled->state == state) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Everything deterministic about a sequential-solve response (subgraphs +
// telemetry counters; wall times are the documented exception). Tests that
// grant requests an auto parallelism share compare
// testing::SerializeSubgraphs instead — work counters vary with timing.
std::string Serialize(const MiningResponse& response) {
  return ::dcs::testing::SerializeDeterministic(response);
}

// --- state machine --------------------------------------------------------

TEST(MiningServiceTest, SubmitWaitDoneMatchesSynchronousMine) {
  MiningRequest request;  // both measures, defaults
  Result<MiningResponse> expected =
      MustCreate(Fig1G1(), Fig1G2()).Mine(request);
  ASSERT_TRUE(expected.ok());

  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  Result<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  Result<JobStatus> status = service.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->terminal());
  EXPECT_TRUE(status->failure.ok());
  EXPECT_GE(status->queue_seconds, 0.0);
  EXPECT_GE(status->run_seconds, 0.0);
  EXPECT_EQ(Serialize(status->response), Serialize(*expected));

  // Poll after the terminal transition returns the same snapshot.
  Result<JobStatus> polled = service.Poll(*id);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->state, JobState::kDone);
  EXPECT_EQ(Serialize(polled->response), Serialize(*expected));
  EXPECT_EQ(service.num_submitted(), 1u);
  EXPECT_EQ(service.num_pending_jobs(), 0u);
}

TEST(MiningServiceTest, UnknownJobIdsAreNotFound) {
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  EXPECT_TRUE(service.Poll(4242).status().IsNotFound());
  EXPECT_TRUE(service.Wait(4242).status().IsNotFound());
  EXPECT_TRUE(service.Cancel(4242).status().IsNotFound());
}

TEST(MiningServiceTest, QueuedAndRunningStatesAreObservable) {
  RegisterTestSolvers();
  g_release.store(false);

  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  MiningRequest blocking;
  blocking.measure = Measure::kAverageDegree;
  blocking.ad_solver_name = "blocking-solver";
  Result<JobId> first = service.Submit(blocking);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WaitForState(service, *first, JobState::kRunning));

  Result<JobId> second = service.Submit(MiningRequest{});
  ASSERT_TRUE(second.ok());
  Result<JobStatus> queued = service.Poll(*second);
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued->state, JobState::kQueued);
  EXPECT_EQ(service.num_pending_jobs(), 2u);

  g_release.store(true);
  EXPECT_EQ(service.Wait(*first)->state, JobState::kDone);
  EXPECT_EQ(service.Wait(*second)->state, JobState::kDone);
}

// --- failure propagation --------------------------------------------------

TEST(MiningServiceTest, BadSolverNameFailsTheJobNotTheService) {
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  MiningRequest bad;
  bad.ga_solver_name = "no-such-measure";
  Result<JobId> id = service.Submit(bad);
  ASSERT_TRUE(id.ok());
  Result<JobStatus> status = service.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_TRUE(status->failure.IsNotFound());
  EXPECT_NE(status->failure.message().find("no-such-measure"),
            std::string::npos);
  EXPECT_TRUE(status->response.graph_affinity.empty());

  // The queue keeps draining: the next job succeeds.
  Result<JobId> good = service.Submit(MiningRequest{});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(service.Wait(*good)->state, JobState::kDone);
}

TEST(MiningServiceTest, ThrowingSolverFailsTheJobNotTheProcess) {
  RegisterTestSolvers();
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  MiningRequest throwing;
  throwing.measure = Measure::kAverageDegree;
  throwing.ad_solver_name = "service-throwing";
  Result<JobId> id = service.Submit(throwing);
  ASSERT_TRUE(id.ok());
  Result<JobStatus> status = service.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->failure.code(), StatusCode::kInternal);
  EXPECT_NE(status->failure.message().find("boom"), std::string::npos);

  // The executor survived the exception and keeps serving.
  Result<JobId> good = service.Submit(MiningRequest{});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(service.Wait(*good)->state, JobState::kDone);
}

TEST(MiningServiceTest, InvalidRequestFailsTheJobWithItsValidationStatus) {
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  MiningRequest invalid;
  invalid.alpha = 0.0;  // Validate() rejects non-positive alpha
  Result<JobId> id = service.Submit(invalid);
  ASSERT_TRUE(id.ok());
  Result<JobStatus> status = service.Wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_TRUE(status->failure.IsInvalidArgument());
}

TEST(MiningServiceTest, BadUpdatesAreRejectedEagerly) {
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  EXPECT_TRUE(service.ApplyUpdate(UpdateSide::kG2, 1, 1, 1.0)
                  .IsInvalidArgument());  // self-loop
  EXPECT_EQ(service.ApplyUpdate(UpdateSide::kG2, 0, 99, 1.0).code(),
            StatusCode::kOutOfRange);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(
      service.ApplyUpdate(UpdateSide::kG1, 0, 1, inf).IsInvalidArgument());
}

// --- cancellation ---------------------------------------------------------

TEST(MiningServiceTest, CancellingAQueuedJobNeverStartsIt) {
  RegisterTestSolvers();
  g_release.store(false);
  g_counting_runs.store(0);

  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  MiningRequest blocking;
  blocking.measure = Measure::kAverageDegree;
  blocking.ad_solver_name = "blocking-solver";
  Result<JobId> head = service.Submit(blocking);
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(WaitForState(service, *head, JobState::kRunning));

  MiningRequest counted;
  counted.measure = Measure::kAverageDegree;
  counted.ad_solver_name = "counting-solver";
  Result<JobId> queued = service.Submit(counted);
  ASSERT_TRUE(queued.ok());
  Result<JobStatus> cancelled = service.Cancel(*queued);
  ASSERT_TRUE(cancelled.ok());
  // Terminal immediately — the guarantee, not just eventually-cancelled.
  EXPECT_EQ(cancelled->state, JobState::kCancelled);

  g_release.store(true);
  EXPECT_EQ(service.Wait(*head)->state, JobState::kDone);
  service.Drain();
  EXPECT_EQ(g_counting_runs.load(), 0) << "cancelled queued job was started";
  EXPECT_EQ(service.Wait(*queued)->state, JobState::kCancelled);

  // Cancelling a terminal job is a no-op returning the snapshot.
  EXPECT_EQ(service.Cancel(*head)->state, JobState::kDone);
}

TEST(MiningServiceTest, CancelMidRunLeavesTheSessionReusable) {
  RegisterTestSolvers();
  auto [g1, g2] = std::pair{Fig1G1(), Fig1G2()};

  MiningService service(MustCreate(g1, g2));
  MiningRequest doomed;
  doomed.ga_solver_name = "cancel-waiting";
  Result<JobId> id = service.Submit(doomed);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(WaitForState(service, *id, JobState::kRunning));
  Result<JobStatus> snapshot = service.Cancel(*id);
  ASSERT_TRUE(snapshot.ok());
  Result<JobStatus> final_status = service.Wait(*id);
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status->state, JobState::kCancelled);
  EXPECT_TRUE(final_status->response.graph_affinity.empty())
      << "cancelled job must not carry a partial result";

  // The identical request (builtin solver) on the same service now returns
  // the exact synchronous-reference answer. The cancelled job already
  // materialized the pipeline (prepare precedes the solve), so the matching
  // reference is a cache-warm solve: mine twice, compare the second.
  MiningRequest request;  // defaults: builtin solvers
  MinerSession reference = MustCreate(g1, g2);
  ASSERT_TRUE(reference.Mine(request).ok());
  Result<MiningResponse> expected = reference.Mine(request);
  ASSERT_TRUE(expected.ok());
  Result<JobId> retry = service.Submit(request);
  ASSERT_TRUE(retry.ok());
  Result<JobStatus> done = service.Wait(*retry);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, JobState::kDone);
  EXPECT_EQ(Serialize(done->response), Serialize(*expected));
}

TEST(MiningServiceTest, DestructionCancelsOutstandingJobs) {
  RegisterTestSolvers();
  g_release.store(false);
  g_counting_runs.store(0);

  Result<JobId> queued = Status::OK();
  {
    MiningService service(MustCreate(Fig1G1(), Fig1G2()));
    MiningRequest blocking;
    blocking.measure = Measure::kAverageDegree;
    blocking.ad_solver_name = "blocking-solver";
    ASSERT_TRUE(service.Submit(blocking).ok());

    MiningRequest counted;
    counted.measure = Measure::kAverageDegree;
    counted.ad_solver_name = "counting-solver";
    queued = service.Submit(counted);
    ASSERT_TRUE(queued.ok());
    // Destructor: fires the running job's token (the blocking solver
    // observes it), cancels the queued job, joins — must not hang.
  }
  EXPECT_EQ(g_counting_runs.load(), 0);
}

TEST(MiningServiceTest, DestructionReleasesOutstandingWaiters) {
  RegisterTestSolvers();
  g_release.store(false);

  auto service =
      std::make_unique<MiningService>(MustCreate(Fig1G1(), Fig1G2()));
  MiningRequest blocking;
  blocking.measure = Measure::kAverageDegree;
  blocking.ad_solver_name = "blocking-solver";
  Result<JobId> running = service->Submit(blocking);
  ASSERT_TRUE(running.ok());
  Result<JobId> queued = service->Submit(blocking);
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(WaitForState(*service, *running, JobState::kRunning));

  constexpr size_t kWaiters = 4;
  std::vector<Result<JobStatus>> results(kWaiters, Status::OK());
  std::vector<std::thread> waiters;
  for (size_t i = 0; i < kWaiters; ++i) {
    const JobId target = (i % 2 == 0) ? *running : *queued;
    waiters.emplace_back(
        [&, i, target] { results[i] = service->Wait(target); });
  }
  // A registered waiter is positively inside the service (the population
  // the teardown drain covers) — only then is destroying it defined.
  WallTimer timer;
  while (service->num_active_waiters() < kWaiters) {
    if (timer.Seconds() > 30.0) {
      // Let the jobs finish so the waiters return and can be joined before
      // failing — returning with joinable threads would std::terminate.
      g_release.store(true);
      for (std::thread& t : waiters) t.join();
      FAIL() << "waiters never registered inside Wait()";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The destructor cancels both jobs, joins the executor, then blocks until
  // every outstanding Wait() has returned — so the waiters above must all
  // come back with terminal snapshots instead of touching freed sync
  // primitives.
  service.reset();
  for (std::thread& t : waiters) t.join();
  for (const Result<JobStatus>& status : results) {
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, JobState::kCancelled);
  }
}

TEST(MiningServiceTest, SubmitStripsCallerEmbeddedCancelToken) {
  RegisterTestSolvers();

  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  CancelToken caller_token;
  caller_token.Cancel();
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;  // the builtin NewSEA seed loop
  request.ga_solver.cancel = &caller_token;
  Result<JobId> id = service.Submit(std::move(request));
  ASSERT_TRUE(id.ok());
  Result<JobStatus> done = service.Wait(*id);
  ASSERT_TRUE(done.ok());
  // The embedded (already-fired, dangle-prone) token was stripped at
  // Submit: the job is governed solely by its per-job token — which also
  // means Cancel(JobId) actually reaches the seed loop for such requests.
  EXPECT_EQ(done->state, JobState::kDone);
}

TEST(MiningServiceTest, PollIsSafeAgainstConcurrentEviction) {
  RegisterTestSolvers();
  g_release.store(true);

  MiningServiceOptions options;
  options.max_finished_jobs = 1;  // evict on every finish
  MiningService service(MustCreate(Fig1G1(), Fig1G2()), options);
  MiningRequest counted;
  counted.measure = Measure::kAverageDegree;
  counted.ad_solver_name = "counting-solver";

  // Hammer Poll on the most recent job while new finishes evict it: the
  // snapshot's unlocked response copy must pin the Job with its own
  // shared_ptr (use-after-free regression; sanitizer runs enforce it).
  std::atomic<JobId> latest{0};
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const JobId id = latest.load();
      if (id == 0) continue;
      Result<JobStatus> snapshot = service.Poll(id);
      if (!snapshot.ok()) {
        EXPECT_EQ(snapshot.status().code(), StatusCode::kNotFound);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    Result<JobId> id = service.Submit(counted);
    if (!id.ok()) break;
    latest.store(*id);
    EXPECT_TRUE(service.Wait(*id).ok());
  }
  stop.store(true);
  poller.join();
}

// --- backpressure ---------------------------------------------------------

TEST(MiningServiceTest, BackpressureRejectsSubmitsBeyondTheQueueCap) {
  RegisterTestSolvers();
  g_release.store(false);

  MiningServiceOptions options;
  options.max_queued_jobs = 2;
  MiningService service(MustCreate(Fig1G1(), Fig1G2()), options);
  MiningRequest blocking;
  blocking.measure = Measure::kAverageDegree;
  blocking.ad_solver_name = "blocking-solver";
  Result<JobId> running = service.Submit(blocking);
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(WaitForState(service, *running, JobState::kRunning));

  // The running job no longer occupies the queue: two more fit, not three.
  ASSERT_TRUE(service.Submit(MiningRequest{}).ok());
  ASSERT_TRUE(service.Submit(MiningRequest{}).ok());
  Result<JobId> overflow = service.Submit(MiningRequest{});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);

  g_release.store(true);
  service.Drain();
  // Queue drained: submits are accepted again.
  EXPECT_TRUE(service.Submit(MiningRequest{}).ok());
  service.Drain();
}

// --- update fencing -------------------------------------------------------

TEST(MiningServiceTest, UpdatesAreFencedBetweenJobs) {
  // Live graph: a modest clique that a fenced surge overtakes.
  const Graph g1 = MakeGraph(8, {});
  const Graph g2 = MakeGraph(8, {{0, 1, 3.0}, {1, 2, 3.0}, {0, 2, 3.0}});
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;

  // Reference replay: solve, update, solve — synchronously.
  MinerSession reference = MustCreate(g1, g2);
  Result<MiningResponse> before = reference.Mine(request);
  ASSERT_TRUE(before.ok());
  for (const auto [u, v] : {std::pair{4, 5}, {5, 6}, {4, 6}}) {
    ASSERT_TRUE(reference
                    .ApplyUpdate(UpdateSide::kG2, static_cast<VertexId>(u),
                                 static_cast<VertexId>(v), 9.0)
                    .ok());
  }
  Result<MiningResponse> after = reference.Mine(request);
  ASSERT_TRUE(after.ok());
  // The surge changed the answer — otherwise fencing would be vacuous.
  ASSERT_NE(Serialize(*before), Serialize(*after));

  // Async: job A is submitted before the update, job B after. The fence
  // guarantees A mines the pre-update snapshot even though the update is
  // queued long before A's solve may actually start.
  MiningService service(MustCreate(g1, g2));
  Result<JobId> job_a = service.Submit(request);
  ASSERT_TRUE(job_a.ok());
  for (const auto [u, v] : {std::pair{4, 5}, {5, 6}, {4, 6}}) {
    ASSERT_TRUE(service
                    .ApplyUpdate(UpdateSide::kG2, static_cast<VertexId>(u),
                                 static_cast<VertexId>(v), 9.0)
                    .ok());
  }
  Result<JobId> job_b = service.Submit(request);
  ASSERT_TRUE(job_b.ok());

  Result<JobStatus> status_a = service.Wait(*job_a);
  Result<JobStatus> status_b = service.Wait(*job_b);
  ASSERT_TRUE(status_a.ok());
  ASSERT_TRUE(status_b.ok());
  ASSERT_EQ(status_a->state, JobState::kDone);
  ASSERT_EQ(status_b->state, JobState::kDone);
  EXPECT_EQ(Serialize(status_a->response), Serialize(*before));
  EXPECT_EQ(Serialize(status_b->response), Serialize(*after));
}

// --- many jobs vs synchronous reference ----------------------------------

TEST(MiningServiceTest, ManyJobsMatchTheirSynchronousReference) {
  Rng rng(31);
  Result<Graph> g2 = RandomSignedGraph(/*n=*/120, /*m=*/800,
                                       /*positive_fraction=*/0.7,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/3.0, &rng);
  ASSERT_TRUE(g2.ok());
  const Graph g1 = MakeGraph(120, {});

  // A deterministic interleaving of 24 mixed jobs and 5 updates.
  std::vector<MiningRequest> requests(24);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].measure = i % 3 == 0   ? Measure::kBoth
                          : i % 3 == 1 ? Measure::kGraphAffinity
                                       : Measure::kAverageDegree;
    requests[i].alpha = i % 2 == 0 ? 1.0 : 2.0;
    requests[i].flip = i % 5 == 0;
    requests[i].ga_solver.parallelism = 0;  // auto
  }
  auto update_at = [](size_t i) { return i % 5 == 2; };
  auto update_edge = [](size_t i) {
    return std::pair<VertexId, VertexId>(static_cast<VertexId>(i),
                                         static_cast<VertexId>(i + 40));
  };

  // Reference: synchronous replay of the same op order.
  MinerSession reference = MustCreate(g1, *g2);
  std::vector<std::string> expected;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (update_at(i)) {
      const auto [u, v] = update_edge(i);
      ASSERT_TRUE(reference.ApplyUpdate(UpdateSide::kG2, u, v, 4.0).ok());
    }
    Result<MiningResponse> mined = reference.Mine(requests[i]);
    ASSERT_TRUE(mined.ok());
    // Subgraphs only: these requests take the auto parallelism share, so
    // their work counters may vary with thread timing on multi-core hosts.
    expected.push_back(::dcs::testing::SerializeSubgraphs(*mined));
  }

  MiningService service(MustCreate(g1, *g2));
  std::vector<JobId> ids;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (update_at(i)) {
      const auto [u, v] = update_edge(i);
      ASSERT_TRUE(service.ApplyUpdate(UpdateSide::kG2, u, v, 4.0).ok());
    }
    Result<JobId> id = service.Submit(requests[i]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<JobStatus> status = service.Wait(ids[i]);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone) << "job #" << i;
    EXPECT_EQ(::dcs::testing::SerializeSubgraphs(status->response), expected[i])
        << "job #" << i;
  }
}

// --- retention ------------------------------------------------------------

TEST(MiningServiceTest, FinishedJobsAreEvictedBeyondTheRetentionCap) {
  MiningServiceOptions options;
  options.max_finished_jobs = 2;
  MiningService service(MustCreate(Fig1G1(), Fig1G2()), options);
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    Result<JobId> id = service.Submit(MiningRequest{});
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  service.Drain();
  EXPECT_TRUE(service.Poll(ids[0]).status().IsNotFound());
  EXPECT_TRUE(service.Poll(ids[1]).status().IsNotFound());
  EXPECT_EQ(service.Poll(ids[2])->state, JobState::kDone);
  EXPECT_EQ(service.Poll(ids[3])->state, JobState::kDone);
}

// --- multi-tenant scheduling ----------------------------------------------

// Three distinct graph pairs used as tenants throughout this block.
std::vector<std::pair<Graph, Graph>> TenantPairs() {
  std::vector<std::pair<Graph, Graph>> pairs;
  pairs.emplace_back(Fig1G1(), Fig1G2());
  for (uint64_t seed : {7u, 19u}) {
    Rng rng(seed);
    Result<Graph> g2 = RandomSignedGraph(/*n=*/60, /*m=*/300,
                                         /*positive_fraction=*/0.7,
                                         /*magnitude_lo=*/0.5,
                                         /*magnitude_hi=*/3.0, &rng);
    DCS_CHECK(g2.ok());
    pairs.emplace_back(MakeGraph(60, {}), std::move(*g2));
  }
  return pairs;
}

// The per-tenant job script: measures/alphas vary per slot, and a fenced
// update lands mid-stream so fencing is load-bearing under contention.
std::vector<MiningRequest> TenantScript(size_t tenant) {
  std::vector<MiningRequest> requests(6);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].measure = (i + tenant) % 3 == 0 ? Measure::kBoth
                          : (i + tenant) % 3 == 1
                              ? Measure::kGraphAffinity
                              : Measure::kAverageDegree;
    requests[i].alpha = i % 2 == 0 ? 1.0 : 2.0;
    requests[i].ga_solver.parallelism = 0;  // auto — exercises pool sharing
  }
  return requests;
}

bool ScriptUpdateAt(size_t i) { return i == 3; }

// The acceptance bar of the multi-tenant scheduler: whatever the executor
// count and whatever priorities the tenants use, each tenant's responses are
// bit-identical to a *dedicated single-tenant service* replaying the same
// per-tenant op order. Priority reorders dispatch between tenants only, so
// it must never leak into results.
TEST(MultiTenantTest, TenantsMatchDedicatedSingleTenantServices) {
  auto pairs = TenantPairs();

  // References: one dedicated single-tenant service per graph pair.
  std::vector<std::vector<std::string>> expected(pairs.size());
  for (size_t t = 0; t < pairs.size(); ++t) {
    MiningService solo(MustCreate(pairs[t].first, pairs[t].second));
    std::vector<JobId> ids;
    const auto script = TenantScript(t);
    for (size_t i = 0; i < script.size(); ++i) {
      if (ScriptUpdateAt(i)) {
        ASSERT_TRUE(solo.ApplyUpdate(UpdateSide::kG2, 1, 3, 2.5).ok());
      }
      Result<JobId> id = solo.Submit(script[i]);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (JobId id : ids) {
      Result<JobStatus> status = solo.Wait(id);
      ASSERT_TRUE(status.ok());
      ASSERT_EQ(status->state, JobState::kDone);
      expected[t].push_back(
          ::dcs::testing::SerializeSubgraphs(status->response));
    }
  }

  for (uint32_t executors : {1u, 2u, 4u, 7u}) {
    for (int permutation = 0; permutation < 2; ++permutation) {
      MiningServiceOptions options;
      options.num_executors = executors;
      options.shared_cache = std::make_shared<PipelineCache>();
      options.worker_pool =
          std::make_shared<ThreadPool>(ThreadPool::DefaultConcurrency() - 1);
      MiningService service(options);
      for (auto& [g1, g2] : pairs) {
        Result<TenantId> tenant = service.AddTenant(
            MustCreate(g1, g2), TenantOptions{.weight = 1});
        ASSERT_TRUE(tenant.ok());
      }
      std::vector<std::vector<JobId>> ids(pairs.size());
      for (size_t i = 0; i < TenantScript(0).size(); ++i) {
        for (size_t t = 0; t < pairs.size(); ++t) {
          auto script = TenantScript(t);
          if (ScriptUpdateAt(i)) {
            ASSERT_TRUE(service
                            .ApplyUpdate(static_cast<TenantId>(t),
                                         UpdateSide::kG2, 1, 3, 2.5)
                            .ok());
          }
          MiningRequest request = script[i];
          request.priority =
              static_cast<int32_t>((i * 7 + t * 3 + permutation) % 3) - 1;
          Result<JobId> id =
              service.Submit(static_cast<TenantId>(t), std::move(request));
          ASSERT_TRUE(id.ok());
          ids[t].push_back(*id);
        }
      }
      for (size_t t = 0; t < pairs.size(); ++t) {
        for (size_t i = 0; i < ids[t].size(); ++i) {
          Result<JobStatus> status = service.Wait(ids[t][i]);
          ASSERT_TRUE(status.ok());
          ASSERT_EQ(status->state, JobState::kDone)
              << "tenant " << t << " job " << i << ": "
              << status->failure.ToString();
          EXPECT_EQ(status->tenant, t);
          EXPECT_EQ(::dcs::testing::SerializeSubgraphs(status->response),
                    expected[t][i])
              << "executors=" << executors << " permutation=" << permutation
              << " tenant=" << t << " job=" << i;
        }
      }
    }
  }
}

// Priority picks between tenants; within a tenant the queue is strict FIFO.
// A paused single-executor service dispatches a staged backlog in exactly
// the documented order: max head priority, then min vtime, then lowest id.
TEST(MultiTenantTest, PriorityOrdersDispatchBetweenTenants) {
  MiningServiceOptions options;
  options.start_paused = true;
  MiningService service(options);
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
  }
  auto submit = [&](TenantId tenant, int32_t priority) {
    MiningRequest request;
    request.measure = Measure::kAverageDegree;
    request.priority = priority;
    Result<JobId> id = service.Submit(tenant, std::move(request));
    DCS_CHECK(id.ok()) << id.status().ToString();
    return *id;
  };
  // Backlog: A={0,0}, B={2,0}, C={1}. Expected dispatch order (all vtimes
  // start 0): B's p2 head, C's p1 head, then A before B among the p0 heads
  // (A's vtime 0 < B's 1), then A again (vtime tie 1, lowest id), then B.
  const JobId a1 = submit(0, 0), a2 = submit(0, 0);
  const JobId b1 = submit(1, 2), b2 = submit(1, 0);
  const JobId c1 = submit(2, 1);
  service.Resume();
  service.Drain();
  auto finish_of = [&](JobId id) {
    Result<JobStatus> status = service.Poll(id);
    DCS_CHECK(status.ok() && status->state == JobState::kDone);
    return status->finish_index;
  };
  EXPECT_EQ(finish_of(b1), 1u);
  EXPECT_EQ(finish_of(c1), 2u);
  EXPECT_EQ(finish_of(a1), 3u);
  EXPECT_EQ(finish_of(a2), 4u);
  EXPECT_EQ(finish_of(b2), 5u);
}

// Weighted fairness: with weights 3:1 at equal priority, the dispatch order
// of a staged backlog matches an in-test simulation of the virtual-clock
// rule exactly (same arithmetic, same tie-break), and the final clocks land
// where jobs/weight says they must.
TEST(MultiTenantTest, WeightedFairSharesFollowTheVirtualClock) {
  constexpr size_t kJobsPerTenant = 8;
  const uint32_t weights[2] = {3, 1};

  MiningServiceOptions options;
  options.start_paused = true;
  MiningService service(options);
  for (uint32_t weight : weights) {
    ASSERT_TRUE(service
                    .AddTenant(MustCreate(Fig1G1(), Fig1G2()),
                               TenantOptions{.weight = weight})
                    .ok());
  }
  std::vector<std::vector<JobId>> ids(2);
  for (size_t i = 0; i < kJobsPerTenant; ++i) {
    for (TenantId t = 0; t < 2; ++t) {
      MiningRequest request;
      request.measure = Measure::kAverageDegree;
      Result<JobId> id = service.Submit(t, std::move(request));
      ASSERT_TRUE(id.ok());
      ids[t].push_back(*id);
    }
  }
  service.Resume();
  service.Drain();

  // Reference scheduler: min vtime wins, ties to the lowest id, clock
  // advances by 1/weight — the same doubles in the same order as the
  // service, so the comparison is exact, not approximate.
  double vtime[2] = {0.0, 0.0};
  size_t next_job[2] = {0, 0};
  uint64_t expected_finish = 0;
  while (next_job[0] < kJobsPerTenant || next_job[1] < kJobsPerTenant) {
    int pick = -1;
    for (int t = 0; t < 2; ++t) {
      if (next_job[t] == kJobsPerTenant) continue;
      if (pick == -1 || vtime[t] < vtime[pick]) pick = t;
    }
    vtime[pick] += 1.0 / weights[pick];
    const JobId id = ids[pick][next_job[pick]++];
    ++expected_finish;
    Result<JobStatus> status = service.Poll(id);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    EXPECT_EQ(status->finish_index, expected_finish)
        << "tenant " << pick << " job " << next_job[pick] - 1;
  }
  for (TenantId t = 0; t < 2; ++t) {
    Result<TenantStats> stats = service.tenant_stats(t);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->submitted, kJobsPerTenant);
    EXPECT_EQ(stats->dispatched, kJobsPerTenant);
    EXPECT_EQ(stats->completed, kJobsPerTenant);
    EXPECT_EQ(stats->virtual_time, vtime[t]);
    EXPECT_GT(stats->total_queue_seconds, 0.0);
    EXPECT_GE(stats->max_queue_seconds, 0.0);
  }
}

// Admission control, made deterministic by the paused scheduler: the
// per-tenant cap rejects with OutOfRange, the service-wide job and byte
// budgets with ResourceExhausted, and every rejection is counted. The byte
// gauge returns to zero once the backlog drains.
TEST(MultiTenantTest, AdmissionControlShedsLoadDeterministically) {
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  const size_t per_job = MiningService::ApproxRequestBytes(request);
  ASSERT_GT(per_job, 0u);

  MiningServiceOptions options;
  options.start_paused = true;
  options.max_queued_jobs = 2;            // per-tenant default
  options.max_total_queued_jobs = 3;      // service job budget
  options.max_queued_request_bytes = 3 * per_job;  // never the binding limit
  MiningService service(options);
  ASSERT_TRUE(service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
  ASSERT_TRUE(service
                  .AddTenant(MustCreate(Fig1G1(), Fig1G2()),
                             TenantOptions{.max_queued_jobs = 4})
                  .ok());

  // Tenant 0: cap 2 — third submit is backpressure, not a budget breach.
  ASSERT_TRUE(service.Submit(0, request).ok());
  ASSERT_TRUE(service.Submit(0, request).ok());
  Result<JobId> overflow = service.Submit(0, request);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(service.queued_request_bytes(), 2 * per_job);

  // Tenant 1: its own cap is 4, but the third service-wide job breaches the
  // global budget of 3 → ResourceExhausted.
  ASSERT_TRUE(service.Submit(1, request).ok());
  Result<JobId> exhausted = service.Submit(1, request);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_TRUE(exhausted.status().IsResourceExhausted());

  EXPECT_EQ(service.num_admission_rejections(), 2u);
  EXPECT_EQ(service.tenant_stats(0)->admission_rejections, 1u);
  EXPECT_EQ(service.tenant_stats(1)->admission_rejections, 1u);

  service.Resume();
  service.Drain();
  EXPECT_EQ(service.queued_request_bytes(), 0u);
  EXPECT_TRUE(service.Submit(1, request).ok());
  service.Drain();

  // Byte budget alone: a fresh paused service where bytes bind before jobs.
  MiningServiceOptions byte_options;
  byte_options.start_paused = true;
  byte_options.max_queued_request_bytes = per_job + per_job / 2;
  MiningService byte_service(MustCreate(Fig1G1(), Fig1G2()), byte_options);
  ASSERT_TRUE(byte_service.Submit(request).ok());
  Result<JobId> byte_overflow = byte_service.Submit(request);
  ASSERT_FALSE(byte_overflow.ok());
  EXPECT_TRUE(byte_overflow.status().IsResourceExhausted());
  byte_service.Resume();
  byte_service.Drain();
}

// Twice the load the queues hold is offered to a weighted (3:1:1) service
// with a shared cache and pool: every refusal is backpressure or budget, and
// every admitted job still finishes bit-identical to a synchronous mine of
// its (tenant, request) pair — shedding never touches what was let in.
TEST(MultiTenantTest, OverloadShedsAtAdmissionAndAdmittedJobsStayExact) {
  auto pairs = TenantPairs();
  std::vector<std::vector<std::string>> expected(pairs.size());
  for (size_t t = 0; t < pairs.size(); ++t) {
    MinerSession reference = MustCreate(pairs[t].first, pairs[t].second);
    for (const MiningRequest& request : TenantScript(t)) {
      Result<MiningResponse> mined = reference.Mine(request);
      ASSERT_TRUE(mined.ok());
      expected[t].push_back(::dcs::testing::SerializeSubgraphs(*mined));
    }
  }

  MiningServiceOptions options;
  options.start_paused = true;  // the queues fill before anything runs
  options.num_executors = 2;
  options.max_queued_jobs = 2;
  options.max_total_queued_jobs = 8;
  options.shared_cache = std::make_shared<PipelineCache>();
  options.worker_pool =
      std::make_shared<ThreadPool>(ThreadPool::DefaultConcurrency() - 1);
  MiningService service(options);
  for (size_t t = 0; t < pairs.size(); ++t) {
    TenantOptions tenant_options;
    tenant_options.weight = t == 0 ? 3 : 1;
    tenant_options.max_queued_jobs = t == 0 ? 6 : 0;
    ASSERT_TRUE(service
                    .AddTenant(MustCreate(pairs[t].first, pairs[t].second),
                               tenant_options)
                    .ok());
  }

  // (tenant, script slot, id) of every admitted job.
  struct Admitted {
    size_t tenant;
    size_t slot;
    JobId id;
  };
  std::vector<Admitted> admitted;
  size_t backpressure = 0, exhausted = 0;
  const size_t script_size = TenantScript(0).size();
  for (size_t i = 0; i < 2 * script_size; ++i) {
    for (size_t t = 0; t < pairs.size(); ++t) {
      MiningRequest request = TenantScript(t)[i % script_size];
      request.priority = static_cast<int32_t>(i % 3) - 1;
      Result<JobId> id = service.Submit(static_cast<TenantId>(t), request);
      if (id.ok()) {
        admitted.push_back({t, i % script_size, *id});
      } else if (id.status().code() == StatusCode::kOutOfRange) {
        ++backpressure;
      } else {
        EXPECT_TRUE(id.status().IsResourceExhausted())
            << id.status().ToString();
        ++exhausted;
      }
    }
  }
  // Tenant 0 (cap 6) fills up to the service budget of 8; tenants 1 and 2
  // stop at their default cap of 2.
  EXPECT_EQ(admitted.size(), 8u);
  EXPECT_GT(backpressure, 0u);
  EXPECT_GT(exhausted, 0u);
  EXPECT_EQ(service.num_admission_rejections(), backpressure + exhausted);

  service.Resume();
  for (const Admitted& job : admitted) {
    Result<JobStatus> status = service.Wait(job.id);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone)
        << "tenant " << job.tenant << " job " << job.id << ": "
        << status->failure.ToString();
    EXPECT_EQ(::dcs::testing::SerializeSubgraphs(status->response),
              expected[job.tenant][job.slot])
        << "tenant " << job.tenant << " slot " << job.slot;
  }
}

TEST(MultiTenantTest, AddTenantAndLookupValidation) {
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  Result<TenantId> bad =
      service.AddTenant(MustCreate(Fig1G1(), Fig1G2()), TenantOptions{.weight = 0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(service.num_tenants(), 1u);
  EXPECT_EQ(service.Submit(5, MiningRequest{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.ApplyUpdate(5, UpdateSide::kG1, 0, 1, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.tenant_stats(5).status().code(),
            StatusCode::kInvalidArgument);
  service.Drain();
}

// --- drain vs submit race (regression) ------------------------------------

// A submitter racing Drain must observe either an accepted job that goes
// terminal or an admission rejection — never a Submit that slips past a
// Drain decision and then sleeps forever because the drained service lost
// its wakeup. Rapid Drain calls run against a steady multi-threaded submit
// stream; the test's own completion (plus a final accounting pass) is the
// regression signal.
TEST(MiningServiceTest, DrainRacingSubmitNeverLosesAJob) {
  MiningServiceOptions options;
  options.max_queued_jobs = 8;
  options.num_executors = 2;
  MiningService service(options);
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
  }

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 40;
  std::vector<std::vector<JobId>> accepted(kSubmitters);
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerThread; ++i) {
        MiningRequest request;
        request.measure = Measure::kAverageDegree;
        Result<JobId> id =
            service.Submit(static_cast<TenantId>(s % 2), std::move(request));
        if (id.ok()) {
          accepted[s].push_back(*id);
        } else {
          // Backpressure is the only acceptable refusal while running.
          EXPECT_EQ(id.status().code(), StatusCode::kOutOfRange);
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::thread drainer([&] {
    for (int i = 0; i < 50; ++i) {
      service.Drain();
    }
  });
  for (auto& thread : submitters) thread.join();
  drainer.join();
  service.Drain();

  uint64_t terminal = 0;
  for (const auto& ids : accepted) {
    for (JobId id : ids) {
      Result<JobStatus> status = service.Poll(id);
      ASSERT_TRUE(status.ok());
      EXPECT_EQ(status->state, JobState::kDone);
      ++terminal;
    }
  }
  EXPECT_EQ(terminal + static_cast<uint64_t>(rejected.load()),
            static_cast<uint64_t>(kSubmitters) * kPerThread);
  EXPECT_EQ(service.num_pending_jobs(), 0u);
}

// --- watchdog expiry vs cancel race (regression) --------------------------

// Deadline-carrying jobs racing explicit Cancel calls: every job must land
// in exactly one terminal state — kCancelled when the user won, kFailed
// with kDeadlineExceeded when the watchdog did — and the per-tenant
// terminal counters must add up to the submissions either way.
TEST(MiningServiceTest, WatchdogExpiryRacingCancelIsTerminalExactlyOnce) {
  RegisterTestSolvers();
  constexpr int kJobs = 24;
  MiningService service(MustCreate(Fig1G1(), Fig1G2()));
  std::vector<JobId> ids;
  for (int i = 0; i < kJobs; ++i) {
    MiningRequest request;
    request.measure = Measure::kAverageDegree;
    request.ad_solver_name = "cancel-waiting";  // runs until its token fires
    request.deadline_seconds = 0.002 + 0.002 * (i % 4);
    Result<JobId> id = service.Submit(std::move(request));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Race the watchdog from two directions at once.
  std::thread canceller([&] {
    for (size_t i = 0; i < ids.size(); i += 2) {
      (void)service.Cancel(ids[i]);
    }
  });
  std::thread late_canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    for (size_t i = 1; i < ids.size(); i += 2) {
      (void)service.Cancel(ids[i]);
    }
  });
  canceller.join();
  late_canceller.join();
  service.Drain();

  uint64_t cancelled = 0, deadline_failed = 0;
  for (JobId id : ids) {
    Result<JobStatus> status = service.Poll(id);
    ASSERT_TRUE(status.ok());
    ASSERT_TRUE(status->terminal());
    if (status->state == JobState::kCancelled) {
      ++cancelled;
    } else {
      ASSERT_EQ(status->state, JobState::kFailed);
      EXPECT_EQ(status->failure.code(), StatusCode::kDeadlineExceeded);
      ++deadline_failed;
    }
    EXPECT_GT(status->finish_index, 0u);
  }
  EXPECT_EQ(cancelled + deadline_failed, static_cast<uint64_t>(kJobs));
  Result<TenantStats> stats = service.tenant_stats(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cancelled, cancelled);
  EXPECT_EQ(stats->failed, deadline_failed);
  EXPECT_EQ(stats->deadline_exceeded, deadline_failed);
  EXPECT_EQ(stats->cancelled + stats->failed + stats->completed,
            stats->submitted);
  EXPECT_EQ(service.num_deadline_exceeded(), deadline_failed);
}

// --- crash-consistent job journal ----------------------------------------

std::string ServiceJournalPath(const char* name) {
  return ::testing::TempDir() + "mining_service_journal_" + name + ".dcsj";
}

// A cheap request the counting solver serves, so recovery tests can tell
// re-runs from re-exposed results.
MiningRequest CountingRequest() {
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.ga_solver_name = "counting-solver";
  request.ga_solver.parallelism = 1;
  return request;
}

TEST(MiningServiceJournalTest, RecoveryIsExactlyOnceAndAdmissionOrdered) {
  RegisterTestSolvers();
  const std::string path = ServiceJournalPath("recovery");
  std::filesystem::remove(path);
  // A hand-built crash image: jobs 1 and 2 admitted (2 also started) but
  // never finished; job 3 done with a known response; job 4 failed. This is
  // exactly what a process killed mid-storm leaves behind.
  MiningResponse done_response;
  RankedSubgraph clique;
  clique.vertices = {1, 2};
  clique.weights = {0.5, 0.5};
  clique.value = 1.25;
  clique.positive_clique = true;
  done_response.graph_affinity.push_back(clique);
  {
    Result<std::shared_ptr<JobJournal>> journal = JobJournal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (uint64_t id = 1; id <= 4; ++id) {
      JournalAdmittedRecord admitted;
      admitted.job_id = id;
      admitted.tenant = 0;
      admitted.admission_index = id;
      admitted.request = CountingRequest();
      ASSERT_TRUE((*journal)->AppendAdmitted(admitted).ok());
    }
    ASSERT_TRUE((*journal)->AppendStarted(2).ok());
    JournalDoneRecord done;
    done.job_id = 3;
    done.state = JournalTerminalState::kDone;
    done.has_response = true;
    done.response = done_response;
    ASSERT_TRUE((*journal)->AppendDone(done).ok());
    JournalDoneRecord failed;
    failed.job_id = 4;
    failed.state = JournalTerminalState::kFailed;
    failed.status_code = static_cast<uint32_t>(StatusCode::kNotFound);
    failed.status_message = "no such solver";
    ASSERT_TRUE((*journal)->AppendDone(failed).ok());
    ASSERT_TRUE((*journal)->Flush().ok());
  }

  g_counting_runs.store(0);
  {
    MiningServiceOptions options;
    options.journal_path = path;
    options.start_paused = true;
    MiningService service(options);
    EXPECT_EQ(service.num_recovered_jobs(), 4u);
    EXPECT_EQ(service.recovered_jobs(),
              (std::vector<JobId>{1, 2, 3, 4}));
    // Terminal jobs are visible before any tenant exists — exactly-once,
    // with the journaled content re-exposed bit-identically.
    Result<JobStatus> done = service.Poll(3);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->state, JobState::kDone);
    EXPECT_EQ(testing::SerializeSubgraphs(done->response),
              testing::SerializeSubgraphs(done_response));
    Result<JobStatus> failed = service.Poll(4);
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed->state, JobState::kFailed);
    EXPECT_EQ(failed->failure.code(), StatusCode::kNotFound);
    EXPECT_NE(failed->failure.message().find("no such solver"),
              std::string::npos);
    // Incomplete jobs are parked until their tenant id re-registers...
    Result<JobStatus> queued = service.Poll(1);
    ASSERT_TRUE(queued.ok());
    EXPECT_EQ(queued->state, JobState::kQueued);
    ASSERT_TRUE(
        service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
    service.Resume();
    // ...then run in admission order: job 1 finishes before job 2.
    Result<JobStatus> first = service.Wait(1);
    Result<JobStatus> second = service.Wait(2);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->state, JobState::kDone);
    EXPECT_EQ(second->state, JobState::kDone);
    EXPECT_LT(first->finish_index, second->finish_index);
    // Only the two incomplete jobs re-ran; the Done job never did.
    EXPECT_EQ(g_counting_runs.load(), 2);
    // Fresh submissions resume above the recovered id space.
    Result<JobId> fresh = service.Submit(0, CountingRequest());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(*fresh, 5u);
    ASSERT_TRUE(service.Wait(*fresh).ok());
    Result<JobJournalStats> stats = service.journal_stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->appended_records, 5u);  // 2 started + 3 done at least
    EXPECT_EQ(service.num_recovered_jobs(), 4u);
  }
  // After the graceful shutdown every admitted job has a Done record, so a
  // second recovery resubmits nothing and the file fscks clean.
  Result<JournalFsckReport> fsck = JobJournal::Fsck(path);
  ASSERT_TRUE(fsck.ok());
  EXPECT_EQ(fsck->corrupt_pages, 0u);
  EXPECT_EQ(fsck->unreliable_tail_bytes, 0u);
  g_counting_runs.store(0);
  {
    MiningServiceOptions options;
    options.journal_path = path;
    MiningService service(options);
    EXPECT_EQ(service.num_recovered_jobs(), 5u);
    ASSERT_TRUE(service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
    service.Drain();
    EXPECT_EQ(g_counting_runs.load(), 0);
  }
}

TEST(MiningServiceJournalTest, DestructionDuringRecoveryCancelsParkedJobs) {
  const std::string path = ServiceJournalPath("teardown");
  std::filesystem::remove(path);
  {
    Result<std::shared_ptr<JobJournal>> journal = JobJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (uint64_t id = 1; id <= 2; ++id) {
      JournalAdmittedRecord admitted;
      admitted.job_id = id;
      admitted.tenant = 5;  // a tenant this run never registers
      admitted.admission_index = id;
      admitted.request = CountingRequest();
      ASSERT_TRUE((*journal)->AppendAdmitted(admitted).ok());
    }
    ASSERT_TRUE((*journal)->Flush().ok());
  }
  {
    // The service is torn down while its recovered jobs are still parked
    // waiting for tenant 5 — the destructor must cancel and journal them
    // without touching the (nonexistent) tenant's stats.
    MiningServiceOptions options;
    options.journal_path = path;
    MiningService service(options);
    EXPECT_EQ(service.num_recovered_jobs(), 2u);
    Result<JobStatus> parked = service.Poll(1);
    ASSERT_TRUE(parked.ok());
    EXPECT_EQ(parked->state, JobState::kQueued);
  }
  // The next recovery sees them terminal-cancelled, not resubmittable.
  MiningServiceOptions options;
  options.journal_path = path;
  MiningService service(options);
  EXPECT_EQ(service.num_recovered_jobs(), 2u);
  for (JobId id : {JobId{1}, JobId{2}}) {
    Result<JobStatus> status = service.Poll(id);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, JobState::kCancelled);
  }
}

TEST(MiningServiceJournalTest, UnopenableJournalFailsSubmitNotTheService) {
  // A directory is never a valid journal file, so the open fails — the
  // service must stay alive but refuse admissions with the open error.
  MiningServiceOptions options;
  options.journal_path = ::testing::TempDir();
  MiningService service(options);
  ASSERT_TRUE(service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
  Result<JobId> submitted = service.Submit(0, MiningRequest{});
  ASSERT_FALSE(submitted.ok());
  Result<JobJournalStats> stats = service.journal_stats();
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), submitted.status().code());
}

TEST(MiningServiceJournalTest, ResumeRacingConcurrentSubmitLosesNoJob) {
  RegisterTestSolvers();
  // Satellite regression: Resume() releasing a paused multi-tenant backlog
  // must not race concurrent Submit()s into lost wakeups or dropped jobs.
  MiningServiceOptions options;
  options.start_paused = true;
  options.num_executors = 4;
  MiningService service(options);
  constexpr int kTenants = 3;
  constexpr int kStaged = 8;
  constexpr int kRacing = 16;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(service.AddTenant(MustCreate(Fig1G1(), Fig1G2())).ok());
  }
  std::vector<JobId> ids;
  for (int t = 0; t < kTenants; ++t) {
    for (int i = 0; i < kStaged; ++i) {
      Result<JobId> id = service.Submit(t, CountingRequest());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
  }
  std::vector<JobId> raced(kTenants * kRacing, 0);
  std::thread submitter([&service, &raced] {
    for (int i = 0; i < kRacing; ++i) {
      for (int t = 0; t < kTenants; ++t) {
        Result<JobId> id = service.Submit(t, CountingRequest());
        ASSERT_TRUE(id.ok());
        raced[t * kRacing + i] = *id;
      }
    }
  });
  service.Resume();
  submitter.join();
  service.Drain();
  ids.insert(ids.end(), raced.begin(), raced.end());
  for (JobId id : ids) {
    Result<JobStatus> status = service.Poll(id);
    ASSERT_TRUE(status.ok()) << "job " << id;
    EXPECT_EQ(status->state, JobState::kDone) << "job " << id;
  }
  uint64_t completed = 0;
  for (int t = 0; t < kTenants; ++t) {
    Result<TenantStats> stats = service.tenant_stats(t);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->submitted, stats->completed);
    completed += stats->completed;
  }
  EXPECT_EQ(completed, ids.size());
}

}  // namespace
}  // namespace dcs
