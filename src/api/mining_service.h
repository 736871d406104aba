// MiningService — the asynchronous, multi-tenant submit/poll surface over
// MinerSessions.
//
// A MinerSession is single-threaded by design; under heavy multi-user
// traffic callers should not block on each other's solves. MiningService
// schedules N tenant sessions (one per graph pair — the constructor session
// is tenant 0, AddTenant registers more) behind per-tenant job queues: any
// thread Submit()s a MiningRequest against a tenant and gets a JobId back
// immediately, then Poll()s or Wait()s for the JobStatus as it walks the
// queued → running → done/failed/cancelled state machine.
//
// Scheduling. MiningServiceOptions::num_executors threads drain the tenant
// queues. Each scheduling decision picks, among tenants that have runnable
// work and no job in flight, the tenant whose head job has the highest
// MiningRequest::priority; ties go to the smallest weighted-fair virtual
// time (each dispatched job advances its tenant's clock by 1/weight, so a
// weight-3 tenant gets 3× the dispatch share of a weight-1 tenant at equal
// priority), and remaining ties to the lowest tenant id. At most one job of
// a tenant runs at a time, so every session stays single-threaded; a job's
// solve still fans out across the shared util/thread_pool
// (MiningServiceOptions::worker_pool) via NewSEA seed sharding, so the
// service saturates the machine while keeping results deterministic.
//
// Ordering & fencing. Each tenant's queue is strict FIFO — priority only
// reorders *between* tenants, never within one. Streaming updates submitted
// through ApplyUpdate are *fenced* in their tenant's queue: an update takes
// effect after every job the tenant submitted before it and before every
// job submitted after it. Each job therefore sees exactly the graph
// snapshot it would have seen mining synchronously at its submission point,
// and a finished job's response is bit-identical to a fresh
// MinerSession::Mine of the same request against that snapshot — at every
// executor count and priority interleaving (the determinism guarantee the
// stress tests enforce).
//
// Admission control. Submit sheds load early instead of queueing
// unboundedly: a full per-tenant queue (TenantOptions::max_queued_jobs,
// defaulting to MiningServiceOptions::max_queued_jobs) rejects with
// OutOfRange — the per-queue backpressure signal — and the service-wide job
// and request-byte budgets (max_total_queued_jobs /
// max_queued_request_bytes) reject with kResourceExhausted. Rejections are
// counted per tenant and service-wide.
//
// Cancellation is cooperative: Cancel() on a queued job guarantees it never
// starts; on a running job it fires the CancelToken that
// MinerSession::Solve threads into the DCSGA seed driver, which aborts
// between seeds with no partial result — the session stays reusable
// and resubmitting the identical request yields the exact uncancelled
// answer.
//
// C ABI: this whole surface is exported to non-C++ front-ends through
// include/dcs_c_api.h (opaque handles, integer status codes, no C++ types
// across the boundary).

#ifndef DCS_API_MINING_SERVICE_H_
#define DCS_API_MINING_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/job_journal.h"
#include "api/miner_session.h"
#include "api/mining.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/timer.h"

namespace dcs {

/// Opaque handle of one submitted job; unique within a service.
using JobId = uint64_t;

/// Dense tenant handle returned by AddTenant; the constructor session is
/// tenant 0.
using TenantId = uint32_t;

/// The job lifecycle: kQueued → kRunning → one of the terminal states
/// (kDone / kFailed / kCancelled). A queued job may also go straight to
/// kCancelled without ever running. A job whose
/// MiningRequest::deadline_seconds elapses lands in kFailed carrying
/// StatusCode::kDeadlineExceeded — kCancelled is reserved for explicit
/// Cancel() calls and shutdown.
enum class JobState : uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

/// "queued", "running", "done", "failed" or "cancelled".
const char* JobStateToString(JobState state);

/// \brief Point-in-time snapshot of one job, returned by Poll/Wait/Cancel.
struct JobStatus {
  JobId id = 0;
  /// The tenant the job was submitted against.
  TenantId tenant = 0;
  JobState state = JobState::kQueued;
  /// Failure detail when state == kFailed (the solver's Status, e.g. a
  /// NotFound for an unregistered solver name); OK otherwise.
  Status failure;
  /// The mined response — subgraphs plus per-job MiningTelemetry. Filled
  /// only when state == kDone.
  MiningResponse response;
  /// Seconds the job waited in the queue (Submit → leaving the queue).
  /// 0 while still queued.
  double queue_seconds = 0.0;
  /// Seconds the solve ran. 0 unless the job reached kRunning.
  double run_seconds = 0.0;
  /// 1-based position in the service-wide terminal order (0 while the job
  /// is still queued or running). Scheduler tests reconstruct dispatch
  /// interleavings from this.
  uint64_t finish_index = 0;

  bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }
};

/// Per-tenant scheduling knobs (AddTenant).
struct TenantOptions {
  /// Weighted-fair share: each dispatched job advances the tenant's virtual
  /// clock by 1/weight, so at equal priority a weight-w tenant receives w×
  /// the dispatch share of a weight-1 tenant. Must be >= 1.
  uint32_t weight = 1;
  /// Per-tenant queue capacity; Submit fails with OutOfRange beyond it.
  /// 0 = inherit MiningServiceOptions::max_queued_jobs.
  size_t max_queued_jobs = 0;
};

/// \brief Per-tenant telemetry counters (tenant_stats). All values are
/// lifetime totals; wall-clock fields are telemetry only and never part of
/// the mined results.
struct TenantStats {
  /// Jobs accepted into the tenant's queue.
  uint64_t submitted = 0;
  /// Submit calls rejected by admission control (per-tenant backpressure or
  /// a service-wide budget).
  uint64_t admission_rejections = 0;
  /// Jobs the scheduler dispatched to the tenant's session — the per-tenant
  /// share telemetry.
  uint64_t dispatched = 0;
  uint64_t completed = 0;          ///< jobs that reached kDone
  uint64_t failed = 0;             ///< jobs that reached kFailed
  uint64_t cancelled = 0;          ///< jobs that reached kCancelled
  /// Subset of `failed` that carried StatusCode::kDeadlineExceeded — the
  /// deadline-miss telemetry.
  uint64_t deadline_exceeded = 0;
  /// Queue-wait telemetry over every job that left the queue (dispatched,
  /// cancelled or expired): total and worst-case seconds from Submit to
  /// leaving the queue.
  double total_queue_seconds = 0.0;
  double max_queue_seconds = 0.0;
  /// Total solve seconds across the tenant's dispatched jobs.
  double total_run_seconds = 0.0;
  /// The weighted-fair virtual clock (dispatches / weight, with idle
  /// catch-up); equal values across tenants mean the service honored the
  /// configured weights.
  double virtual_time = 0.0;
};

/// Service-level tuning.
struct MiningServiceOptions {
  /// Default per-tenant queue capacity (jobs not yet terminal, not
  /// running); Submit fails with OutOfRange beyond it — the per-queue
  /// backpressure signal. Overridable per tenant via
  /// TenantOptions::max_queued_jobs. 0 = unbounded.
  size_t max_queued_jobs = 0;
  /// Service-wide admission budget across all tenant queues: total queued
  /// jobs allowed; Submit fails with kResourceExhausted beyond it.
  /// 0 = unbounded.
  size_t max_total_queued_jobs = 0;
  /// Service-wide admission budget on the approximate bytes of queued
  /// requests (ApproxRequestBytes); Submit fails with kResourceExhausted
  /// when accepting the request would exceed it. 0 = unbounded.
  size_t max_queued_request_bytes = 0;
  /// Executor threads draining the tenant queues. Each runs at most one
  /// job (of distinct tenants) at a time; 1 (the default) serializes all
  /// tenants — the single-tenant behavior of earlier revisions. Clamped
  /// to >= 1.
  uint32_t num_executors = 1;
  /// Start with the scheduler paused: submissions queue up but nothing
  /// dispatches until Resume(). Lets tests and batch drivers stage a
  /// backlog and observe one deterministic scheduling order.
  bool start_paused = false;
  /// Terminal jobs retained for Poll/Wait, oldest-finished-first eviction;
  /// polling an evicted job returns NotFound. 0 = retain everything (only
  /// sensible for tests and short-lived batch drivers).
  size_t max_finished_jobs = 4096;
  /// Cross-session shared pipeline cache (api/pipeline_cache.h). When set,
  /// every tenant session is re-attached to it as it is registered, so
  /// tenants over the same dataset prepare each pipeline once. Null
  /// (default) keeps whatever cache each session came with — private unless
  /// the caller already attached a shared one via SessionOptions.
  std::shared_ptr<PipelineCache> shared_cache;
  /// Persistent artifact store (api/artifact_store.h). When set, every
  /// tenant session is attached to it as it is registered — warm-booting
  /// the pipeline cache from disk and writing built pipelines back
  /// asynchronously, so a restarted service answers its first jobs without
  /// rebuilding. Applied after `shared_cache`, so the warm boot hydrates
  /// the cache the service actually mines against. Null (default) keeps
  /// whatever store each session came with.
  std::shared_ptr<ArtifactStore> artifact_store;
  /// Shared worker pool attached to every tenant session
  /// (SessionOptions::worker_pool): N tenants then contend for one fixed
  /// set of solver threads instead of spawning N private pools. Null
  /// (default) leaves each session its private pool. Responses are
  /// bit-identical either way.
  std::shared_ptr<ThreadPool> worker_pool;
  /// Path of the crash-consistent job journal (api/job_journal.h). When
  /// non-empty, the service appends an Admitted record *before* Submit
  /// returns success (a failed append fails the Submit — acked implies
  /// journaled), a Started record at dispatch and a Done record at finish;
  /// on construction over an existing journal it *recovers*: Done jobs are
  /// re-exposed through Poll/Wait without re-running (exactly-once, with
  /// bit-identical response content), and incomplete jobs are resubmitted
  /// in original admission order per tenant as each tenant id is
  /// re-registered via AddTenant. Recovered jobs keep their original
  /// JobIds; deadline clocks restart at recovery. Empty (default) = no
  /// journal. If the journal cannot be opened, the constructor keeps the
  /// service alive but every Submit fails with the open error — durable
  /// admission is never silently dropped.
  std::string journal_path;
  /// Tuning of the journal opened for journal_path (durability mode, group
  /// commit interval, retry budget).
  JobJournalOptions journal_options;
};

/// \brief Asynchronous, multi-tenant mining facade over MinerSessions.
///
/// Submit/Poll/Wait/Cancel/ApplyUpdate are thread-safe and non-blocking
/// (Wait blocks only its caller). Destruction cancels every queued job,
/// fires the running jobs' tokens, joins the executors, and then blocks
/// until every Wait()/Drain() caller blocked inside the service has woken
/// and moved off the service's mutex and condition variables. A Wait()
/// caller may still be finishing its snapshot's response copy (from its own
/// pinned Job — safe) when the destructor returns, so join caller threads
/// before reading results they write. The guarantee covers only calls that
/// already entered the service's lock before destruction started; a call
/// still contending for entry — or begun afterwards — races the teardown
/// and is undefined behavior, as for any object, so callers needing that
/// must synchronize externally.
class MiningService {
 public:
  /// Starts a service with no tenants; register graph pairs via AddTenant.
  explicit MiningService(MiningServiceOptions options = {});

  /// Takes ownership of `session` as tenant 0 (weight 1). The session's own
  /// knobs (SessionOptions::max_parallelism, pipeline cache size) keep
  /// governing the solves; each job is granted the whole session thread
  /// budget.
  explicit MiningService(MinerSession session,
                         MiningServiceOptions options = {});
  ~MiningService();

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// \brief Registers `session` as a new tenant and returns its dense id.
  ///
  /// The options' shared cache / artifact store / worker pool are attached
  /// to the session before it becomes schedulable. Fails on a zero weight
  /// (InvalidArgument) or after shutdown began (Cancelled).
  Result<TenantId> AddTenant(MinerSession session, TenantOptions options = {});

  /// \brief Enqueues `request` on `tenant`'s queue and returns its JobId
  /// immediately.
  ///
  /// The request is *not* validated here: validation failures surface
  /// through the job's kFailed state, exactly like solve-time failures, so
  /// callers have one place to look. Fails only on an unknown tenant
  /// (InvalidArgument), backpressure (OutOfRange — per-tenant queue full),
  /// an exceeded service-wide budget (kResourceExhausted, see
  /// MiningServiceOptions), or after shutdown began (Cancelled).
  ///
  /// Any caller-set `request.ga_solver.cancel` pointer is stripped: it
  /// could dangle before the job runs and would shadow the per-job token.
  /// Cancel(JobId) is the only way to abort a submitted job.
  Result<JobId> Submit(TenantId tenant, MiningRequest request);

  /// Tenant-0 convenience overload (the single-tenant shape).
  Result<JobId> Submit(MiningRequest request);

  /// \brief Queues a streaming weight update at `tenant`'s current fence
  /// position (see the file comment). Validated eagerly — a bad update is
  /// rejected here and never enters the queue. Fails with Cancelled after
  /// shutdown began.
  Status ApplyUpdate(TenantId tenant, UpdateSide side, VertexId u, VertexId v,
                     double delta);

  /// Tenant-0 convenience overload.
  Status ApplyUpdate(UpdateSide side, VertexId u, VertexId v, double delta);

  /// Non-blocking snapshot; NotFound for unknown (or evicted) ids.
  Result<JobStatus> Poll(JobId id) const;

  /// Blocks until the job is terminal, then returns the snapshot.
  Result<JobStatus> Wait(JobId id);

  /// \brief Requests cancellation and returns the job's snapshot.
  ///
  /// A queued job transitions to kCancelled immediately and never starts; a
  /// running job finishes cancelling asynchronously (the returned snapshot
  /// may still say kRunning — Wait for the terminal state). Cancelling a
  /// terminal job is a no-op that returns its snapshot.
  Result<JobStatus> Cancel(JobId id);

  /// Releases a scheduler started with
  /// MiningServiceOptions::start_paused; idempotent.
  void Resume();

  /// Blocks until every submitted job is terminal and all queued updates
  /// are applied, across all tenants. New work may be submitted
  /// concurrently; this returns once every queue is observed empty with no
  /// job running. A paused scheduler with a backlog never becomes idle —
  /// Resume() first.
  void Drain();

  /// Registered tenants (AddTenant calls plus the constructor session).
  size_t num_tenants() const;
  /// Per-tenant telemetry; InvalidArgument for an unknown id.
  Result<TenantStats> tenant_stats(TenantId tenant) const;
  /// Jobs submitted over the service's lifetime (all tenants).
  uint64_t num_submitted() const;
  /// Jobs currently queued or running (all tenants).
  size_t num_pending_jobs() const;
  /// Jobs that terminated kFailed with StatusCode::kDeadlineExceeded.
  uint64_t num_deadline_exceeded() const;
  /// Submit calls rejected by admission control (backpressure or budget),
  /// service-wide.
  uint64_t num_admission_rejections() const;
  /// Approximate bytes of currently queued requests — the admission
  /// controller's byte-budget gauge.
  size_t queued_request_bytes() const;
  /// \brief The deterministic per-request byte estimate the byte budget
  /// charges (struct size plus solver-name payloads). Exposed so callers
  /// (and the C ABI) can size max_queued_request_bytes meaningfully.
  static size_t ApproxRequestBytes(const MiningRequest& request);
  /// \brief The worst position on the graceful-degradation ladder
  /// (api/mining.h) across all tenant sessions, mirrored into the service
  /// after every executed job so callers never race the executors. A
  /// service that has not run a job yet reports kHealthy.
  HealthState health() const;
  /// Ladder transitions / store failure counters summed across tenants,
  /// mirrored like health().
  uint64_t num_health_transitions() const;
  uint64_t num_store_write_errors() const;
  uint64_t num_store_retries() const;
  /// Wait()/Drain() callers currently registered as blocked inside the
  /// service — the population the destructor drains. A caller observed here
  /// is covered by the teardown guarantee; the probe exists so tests can
  /// positively establish that instead of sleeping.
  size_t num_active_waiters() const;
  /// \brief Jobs recovered from the journal at construction (terminal jobs
  /// re-exposed plus incomplete jobs awaiting resubmission), in admission
  /// order — the recovered-job enumeration the C ABI exports. Empty when no
  /// journal (or a fresh one) was configured.
  std::vector<JobId> recovered_jobs() const;
  uint64_t num_recovered_jobs() const;
  /// Counters of the attached journal; NotFound when the service runs
  /// without one, or the journal's open error when it failed to open.
  Result<JobJournalStats> journal_stats() const;

 private:
  // One submitted job. Owned by jobs_ (and finished_order_) via shared_ptr
  // so a snapshot under the lock stays cheap and eviction is O(1).
  struct Job {
    JobId id = 0;
    TenantId tenant = 0;
    MiningRequest request;
    JobState state = JobState::kQueued;
    Status failure;
    MiningResponse response;
    CancelToken cancel;
    WallTimer since_submit;  // running from Submit
    double queue_seconds = 0.0;
    double run_seconds = 0.0;
    uint64_t finish_index = 0;
    // The byte-budget charge taken at admission, released when the job
    // leaves its queue.
    size_t approx_bytes = 0;
    // Deadline bookkeeping (request.deadline_seconds > 0 only). The
    // watchdog sets deadline_fired before firing `cancel`; the executor's
    // finish path uses it to map the resulting Cancelled status to kFailed
    // + kDeadlineExceeded. An explicit Cancel() sets user_cancelled, which
    // takes precedence — the caller asked first, so they see kCancelled
    // even if the deadline also fired.
    bool deadline_fired = false;
    bool user_cancelled = false;
  };

  // One queue entry, in fence order: either a job or a pre-validated
  // streaming update.
  struct QueuedOp {
    std::shared_ptr<Job> job;  // null for updates
    UpdateSide side = UpdateSide::kG1;
    VertexId u = 0;
    VertexId v = 0;
    double delta = 0.0;
  };

  // One registered tenant: its session, its FIFO queue and its scheduler
  // state. Stable address (held by unique_ptr) so executors can keep a
  // pointer across the unlocked solve window.
  struct Tenant {
    Tenant(TenantId id, MinerSession session, TenantOptions options)
        : id(id), session(std::move(session)), options(options) {}

    const TenantId id;
    MinerSession session;
    const TenantOptions options;
    std::deque<QueuedOp> queue;
    size_t num_queued_jobs = 0;  // kQueued jobs inside queue
    // An executor is working this tenant (applying its fenced updates or
    // running its one in-flight job). At most one executor per tenant keeps
    // the session single-threaded; the mutex handoff orders the accesses.
    bool busy = false;
    // Weighted-fair virtual clock; see the file comment.
    double vtime = 0.0;
    TenantStats stats;
    // Session health mirror, refreshed by the executor that ran the
    // tenant's latest job (see MiningService::health()).
    HealthState health = HealthState::kHealthy;
    uint64_t health_transitions = 0;
    uint64_t store_write_errors = 0;
    uint64_t store_retries = 0;
  };

  // RAII registration of a Wait()/Drain() caller about to block on
  // job_finished_. Constructed and destroyed with mutex_ held; the
  // destructor decrements and wakes ~MiningService even if the wait throws,
  // so the teardown drain can never be left hanging on a leaked count.
  class ScopedWaiter {
   public:
    explicit ScopedWaiter(MiningService* service) : service_(service) {
      ++service_->active_waiters_;
    }
    ~ScopedWaiter() {
      if (--service_->active_waiters_ == 0) {
        service_->waiters_done_.notify_all();
      }
    }
    ScopedWaiter(const ScopedWaiter&) = delete;
    ScopedWaiter& operator=(const ScopedWaiter&) = delete;

   private:
    MiningService* service_;
  };

  void ExecutorLoop();
  // Deadline enforcement thread: sleeps until the earliest pending
  // deadline, then expires it — a queued job goes kFailed immediately, a
  // running job gets its CancelToken fired (see Job::deadline_fired).
  void WatchdogLoop();
  // The scheduling decision: among tenants with runnable work and no
  // executor attached, the one with the highest head-job priority, ties to
  // the smallest vtime, then the lowest id. Null when nothing is runnable.
  // Mutex held.
  Tenant* PickTenantLocked();
  // Priority of the first live job entry in `tenant`'s queue (fenced
  // updates and stale entries ahead of it don't carry priority); INT64_MIN
  // for a queue holding only updates/stale entries — it still needs
  // draining, but never outranks a real job. Mutex held.
  int64_t HeadPriorityLocked(const Tenant& tenant) const;
  // Drains `tenant`'s leading fenced updates / stale entries and runs at
  // most one job, releasing the lock around session calls. Enters and
  // leaves with `lock` held; tenant->busy is set for the whole visit.
  void RunTenantOnce(std::unique_lock<std::mutex>* lock, Tenant* tenant);
  // Accounting for a job leaving kQueued (dispatch, cancel, expiry,
  // shutdown): queue/byte gauges and queue-wait telemetry. Mutex held.
  void LeaveQueueLocked(Tenant* tenant, Job* job);
  // True when every tenant queue is empty and no executor is busy — the
  // Drain condition. Mutex held.
  bool IdleLocked() const;
  // Smallest vtime among *other* tenants with work queued or in flight;
  // `fallback` when there is none. The idle catch-up bound of the fair
  // clock. Mutex held.
  double MinActiveVtimeLocked(const Tenant& except, double fallback) const;
  // Fails a still-queued job with kDeadlineExceeded. Mutex held.
  void ExpireQueuedLocked(const std::shared_ptr<Job>& job);
  // Marks `job` terminal, stamps its finish_index, bumps the per-tenant
  // terminal counters, journals the Done record, records the job for
  // retention/eviction and wakes waiters. Mutex held.
  void FinishLocked(const std::shared_ptr<Job>& job);
  // Constructor-time journal recovery: opens options_.journal_path, replays
  // it, re-exposes terminal jobs through jobs_ (without re-running them)
  // and buffers incomplete jobs per tenant until AddTenant registers their
  // tenant id. Runs before the executors start.
  void RecoverFromJournal();
  // Enqueues `tenant`'s buffered incomplete recovered jobs in admission
  // order — called by AddTenant right after registration, so recovered work
  // precedes anything the caller submits afterwards. Mutex held.
  void EnqueueRecoveredLocked(Tenant* tenant);
  // Appends `job`'s Done record (no-op without a journal; failures are
  // counted, never job-fatal). Mutex held.
  void JournalDoneLocked(const std::shared_ptr<Job>& job);
  // Builds the caller's snapshot; enters with `lock` held and releases it
  // before the deep response copy (terminal jobs are immutable).
  JobStatus TakeSnapshot(std::unique_lock<std::mutex>* lock,
                         const std::shared_ptr<Job>& job) const;

  MiningServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable job_finished_;
  // Wakes the watchdog when a deadline-carrying job is submitted (its sleep
  // horizon may have moved up) and at shutdown.
  std::condition_variable deadline_work_;
  // Wakes the destructor once the last registered Wait()/Drain() caller has
  // left job_finished_.wait (see active_waiters_).
  std::condition_variable waiters_done_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
  // Terminal jobs in finish order, for max_finished_jobs eviction.
  std::deque<JobId> finished_order_;
  // Non-terminal jobs with a deadline, watched by WatchdogLoop; entries are
  // pruned as they go terminal or fire.
  std::vector<std::shared_ptr<Job>> deadline_jobs_;
  JobId next_job_id_ = 1;
  // Crash-consistency journal (null when options_.journal_path is empty or
  // the open failed — see journal_error_).
  std::shared_ptr<JobJournal> journal_;
  // Why the configured journal is unavailable; Submit refuses while set so
  // durable admission is never silently dropped.
  Status journal_error_;
  // Service-wide admission sequence, journaled with every Admitted record;
  // resumes above the largest recovered index.
  uint64_t admission_seq_ = 0;
  // Jobs recovered at construction, in admission order (terminal re-exposed
  // plus incomplete pending), for recovered_jobs().
  std::vector<JobId> recovered_job_ids_;
  // Incomplete recovered jobs keyed by tenant id, awaiting their tenant's
  // AddTenant registration; drained in admission order.
  std::unordered_map<TenantId, std::vector<std::shared_ptr<Job>>>
      recovery_pending_;
  // Started/Done appends that failed (non-fatal, unlike Admitted appends).
  uint64_t journal_append_errors_ = 0;
  uint64_t num_submitted_ = 0;
  uint64_t num_deadline_exceeded_ = 0;
  uint64_t num_admission_rejections_ = 0;
  uint64_t finish_seq_ = 0;
  // Service health mirror aggregated over the per-tenant mirrors after
  // every executed job (see health() above).
  HealthState health_ = HealthState::kHealthy;
  size_t num_queued_jobs_ = 0;         // kQueued jobs across all queues
  size_t queued_request_bytes_ = 0;    // byte-budget gauge
  size_t num_running_jobs_ = 0;        // jobs inside an executor
  bool paused_ = false;
  bool stopping_ = false;
  // Wait()/Drain() calls currently blocked on job_finished_; the destructor
  // must not destroy mutex_/job_finished_ until this drops to zero.
  size_t active_waiters_ = 0;

  // Last members: all joined in ~MiningService before the rest tears down.
  std::vector<std::thread> executors_;
  std::thread watchdog_;
};

}  // namespace dcs

#endif  // DCS_API_MINING_SERVICE_H_
