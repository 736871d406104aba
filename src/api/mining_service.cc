#include "api/mining_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "util/logging.h"

namespace dcs {

namespace {

// Only positive finite deadlines are enforced. Anything else either means
// "no deadline" (0) or is an invalid request — which Submit intentionally
// does not reject; it surfaces through the job's kFailed state when
// MinerSession::Mine validates it.
bool HasDeadline(const MiningRequest& request) {
  return std::isfinite(request.deadline_seconds) &&
         request.deadline_seconds > 0.0;
}

// The degradation ladder is ordered kHealthy < kDegraded < kStoreOffline;
// the service-level mirror reports the worst rung across tenants.
HealthState WorseOf(HealthState a, HealthState b) {
  return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

// Reconstructs a recovered job's failure Status from its journaled integer
// code. Codes outside the enum (written by a future format revision) demote
// to kInternal instead of fabricating an out-of-range enum value.
Status StatusFromJournal(uint32_t code, const std::string& message) {
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return Status(StatusCode::kInternal, message);
  }
  return Status(static_cast<StatusCode>(code), message);
}

}  // namespace

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

MiningService::MiningService(MiningServiceOptions options)
    : options_(std::move(options)) {
  options_.num_executors = std::max<uint32_t>(1, options_.num_executors);
  paused_ = options_.start_paused;
  // Recovery runs before any executor exists: replay mutates jobs_ and
  // finished_order_ without the mutex, which is safe only while this
  // constructor is the sole thread.
  RecoverFromJournal();
  executors_.reserve(options_.num_executors);
  for (uint32_t i = 0; i < options_.num_executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

MiningService::MiningService(MinerSession session, MiningServiceOptions options)
    : MiningService(std::move(options)) {
  // Tenant 0 — the single-tenant shape. Registration cannot fail here: the
  // service just started (not stopping) and the default weight is valid.
  Result<TenantId> tenant = AddTenant(std::move(session), TenantOptions{});
  DCS_CHECK(tenant.ok() && *tenant == 0) << tenant.status().ToString();
}

MiningService::~MiningService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Every queued job dies terminally cancelled; unapplied updates are
    // dropped with their sessions (shutdown abandons the streams).
    for (auto& tenant : tenants_) {
      for (QueuedOp& op : tenant->queue) {
        if (op.job != nullptr && op.job->state == JobState::kQueued) {
          LeaveQueueLocked(tenant.get(), op.job.get());
          op.job->state = JobState::kCancelled;
          FinishLocked(op.job);
        }
      }
      tenant->queue.clear();
    }
    // Recovered jobs whose tenant never re-registered die cancelled too —
    // and are journaled as such, so the *next* recovery does not resubmit
    // work this graceful shutdown already declined. They never entered any
    // queue, so there are no gauges to release.
    for (auto& [tenant_id, pending] : recovery_pending_) {
      for (const std::shared_ptr<Job>& job : pending) {
        if (job->state == JobState::kQueued) {
          job->state = JobState::kCancelled;
          FinishLocked(job);
        }
      }
    }
    recovery_pending_.clear();
    // The in-flight jobs (if any) are asked to stop; each executor observes
    // the token between seeds and records the terminal state before
    // exiting.
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) job->cancel.Cancel();
    }
  }
  work_available_.notify_all();
  job_finished_.notify_all();
  deadline_work_.notify_all();
  for (std::thread& executor : executors_) executor.join();
  watchdog_.join();
  // Every job is terminal now, so all Wait()ers are waking up. Let them get
  // back out of job_finished_.wait and off mutex_ before either is
  // destroyed; TakeSnapshot's unlocked response copy is safe afterwards
  // because each waiter pinned its Job with a local shared_ptr.
  std::unique_lock<std::mutex> lock(mutex_);
  waiters_done_.wait(lock, [this] { return active_waiters_ == 0; });
}

Result<TenantId> MiningService::AddTenant(MinerSession session,
                                          TenantOptions options) {
  if (options.weight == 0) {
    return Status::InvalidArgument("tenant weight must be >= 1");
  }
  // Attach service-level resources before the tenant becomes schedulable —
  // no executor can touch the session until it is registered under the
  // lock. Cache first, store second: the warm boot must hydrate the cache
  // the service actually mines against.
  if (options_.shared_cache != nullptr) {
    session.UsePipelineCache(options_.shared_cache);
  }
  if (options_.artifact_store != nullptr) {
    session.UseArtifactStore(options_.artifact_store);
  }
  if (options_.worker_pool != nullptr) {
    session.UseWorkerPool(options_.worker_pool);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::Cancelled("mining service is shutting down");
  }
  const TenantId id = static_cast<TenantId>(tenants_.size());
  tenants_.push_back(
      std::make_unique<Tenant>(id, std::move(session), options));
  // Recovered incomplete jobs for this tenant id enter its queue *now*, in
  // admission order, so they precede anything the caller submits next.
  EnqueueRecoveredLocked(tenants_.back().get());
  return id;
}

void MiningService::RecoverFromJournal() {
  if (options_.journal_path.empty()) return;
  Result<std::shared_ptr<JobJournal>> opened =
      JobJournal::Open(options_.journal_path, options_.journal_options);
  if (!opened.ok()) {
    // The service stays alive (Poll/Wait/AddTenant work) but refuses new
    // admissions: an acked Submit must be journaled, and it cannot be.
    journal_error_ = opened.status();
    DCS_LOG(Warning) << "job journal " << options_.journal_path
                     << " unavailable: " << journal_error_.ToString();
    return;
  }
  journal_ = std::move(*opened);
  Result<std::vector<JournalReplayJob>> replayed = journal_->Replay();
  if (!replayed.ok()) {
    journal_error_ = replayed.status();
    journal_.reset();
    DCS_LOG(Warning) << "job journal replay failed: "
                     << journal_error_.ToString();
    return;
  }
  // Converge a crashed-mid-append file back to fsck-clean now, not at the
  // next append (which may never come).
  (void)journal_->TruncateUnreliableTail();
  JobId max_id = 0;
  for (const JournalReplayJob& entry : *replayed) {
    auto job = std::make_shared<Job>();
    job->id = entry.admitted.job_id;
    job->tenant = entry.admitted.tenant;
    job->request = entry.admitted.request;
    job->request.ga_solver.cancel = nullptr;  // recovery re-owns cancellation
    job->approx_bytes = ApproxRequestBytes(job->request);
    max_id = std::max(max_id, job->id);
    admission_seq_ = std::max(admission_seq_, entry.admitted.admission_index);
    recovered_job_ids_.push_back(job->id);
    jobs_.emplace(job->id, job);
    if (!entry.done) {
      // Incomplete (admitted or started, never finished): parked until its
      // tenant id re-registers, then resubmitted in admission order.
      recovery_pending_[job->tenant].push_back(std::move(job));
      continue;
    }
    // Terminal before the crash: re-exposed through Poll/Wait exactly-once,
    // never re-run. kDone responses are bit-identical to the mined content
    // (telemetry is process state and was never journaled).
    const JournalDoneRecord& done = entry.done_record;
    switch (done.state) {
      case JournalTerminalState::kDone:
        job->state = JobState::kDone;
        job->response = done.response;
        break;
      case JournalTerminalState::kFailed:
        job->state = JobState::kFailed;
        job->failure = StatusFromJournal(done.status_code,
                                         done.status_message);
        break;
      case JournalTerminalState::kCancelled:
        job->state = JobState::kCancelled;
        break;
    }
    job->finish_index = ++finish_seq_;
    finished_order_.push_back(job->id);
  }
  if (max_id >= next_job_id_) next_job_id_ = max_id + 1;
  if (options_.max_finished_jobs != 0) {
    while (finished_order_.size() > options_.max_finished_jobs) {
      jobs_.erase(finished_order_.front());
      finished_order_.pop_front();
    }
  }
}

void MiningService::EnqueueRecoveredLocked(Tenant* tenant) {
  const auto it = recovery_pending_.find(tenant->id);
  if (it == recovery_pending_.end()) return;
  if (tenant->queue.empty() && !tenant->busy) {
    tenant->vtime = MinActiveVtimeLocked(*tenant, tenant->vtime);
  }
  for (std::shared_ptr<Job>& job : it->second) {
    // Deadline clocks restart at recovery: the deadline is a latency bound
    // on *this* process's handling, not a wall-clock appointment that may
    // already have lapsed while no service existed.
    job->since_submit.Restart();
    tenant->queue.push_back(QueuedOp{job});
    ++tenant->num_queued_jobs;
    ++tenant->stats.submitted;
    ++num_queued_jobs_;
    queued_request_bytes_ += job->approx_bytes;
    ++num_submitted_;
    if (HasDeadline(job->request)) {
      deadline_jobs_.push_back(job);
      deadline_work_.notify_one();
    }
    work_available_.notify_one();
  }
  recovery_pending_.erase(it);
}

void MiningService::JournalDoneLocked(const std::shared_ptr<Job>& job) {
  if (journal_ == nullptr) return;
  JournalDoneRecord record;
  record.job_id = job->id;
  switch (job->state) {
    case JobState::kDone:
      record.state = JournalTerminalState::kDone;
      record.has_response = true;
      record.response = job->response;
      break;
    case JobState::kFailed:
      record.state = JournalTerminalState::kFailed;
      record.status_code = static_cast<uint32_t>(job->failure.code());
      record.status_message = job->failure.message();
      break;
    case JobState::kCancelled:
      record.state = JournalTerminalState::kCancelled;
      record.status_code = static_cast<uint32_t>(StatusCode::kCancelled);
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      return;
  }
  if (!journal_->AppendDone(record).ok()) {
    // Non-fatal: the job is terminal either way; the next recovery re-runs
    // it and mines the bit-identical result again.
    ++journal_append_errors_;
  }
}

size_t MiningService::ApproxRequestBytes(const MiningRequest& request) {
  // Deterministic and cheap: the fixed-size struct plus its string
  // payloads. Close enough for a shed-load-early budget; it intentionally
  // ignores allocator overhead.
  return sizeof(MiningRequest) + request.ad_solver_name.size() +
         request.ga_solver_name.size();
}

Result<JobId> MiningService::Submit(TenantId tenant_id,
                                    MiningRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::Cancelled("mining service is shutting down");
  }
  if (!journal_error_.ok()) {
    // A journal was configured but could not be opened: refusing admission
    // beats acking work the journal cannot make durable.
    return journal_error_;
  }
  if (tenant_id >= tenants_.size()) {
    return Status::InvalidArgument("unknown tenant id " +
                                   std::to_string(tenant_id));
  }
  Tenant& tenant = *tenants_[tenant_id];
  // Admission control, cheapest check first. Per-tenant backpressure keeps
  // the historical OutOfRange signal; the service-wide job/byte budgets
  // answer with kResourceExhausted so callers can tell "my queue is full"
  // (drain your own work) from "the service is full" (shed load anywhere).
  const size_t tenant_cap = tenant.options.max_queued_jobs != 0
                                ? tenant.options.max_queued_jobs
                                : options_.max_queued_jobs;
  if (tenant_cap != 0 && tenant.num_queued_jobs >= tenant_cap) {
    ++tenant.stats.admission_rejections;
    ++num_admission_rejections_;
    return Status::OutOfRange(
        "job queue full (" + std::to_string(tenant.num_queued_jobs) +
        " queued); retry after draining");
  }
  if (options_.max_total_queued_jobs != 0 &&
      num_queued_jobs_ >= options_.max_total_queued_jobs) {
    ++tenant.stats.admission_rejections;
    ++num_admission_rejections_;
    return Status::ResourceExhausted(
        "service job budget exhausted (" + std::to_string(num_queued_jobs_) +
        " queued across tenants); shed load and retry");
  }
  const size_t bytes = ApproxRequestBytes(request);
  if (options_.max_queued_request_bytes != 0 &&
      queued_request_bytes_ + bytes > options_.max_queued_request_bytes) {
    ++tenant.stats.admission_rejections;
    ++num_admission_rejections_;
    return Status::ResourceExhausted(
        "service byte budget exhausted (" +
        std::to_string(queued_request_bytes_) + " of " +
        std::to_string(options_.max_queued_request_bytes) +
        " bytes queued); shed load and retry");
  }
  auto job = std::make_shared<Job>();
  job->id = next_job_id_++;
  job->tenant = tenant_id;
  job->request = std::move(request);
  job->approx_bytes = bytes;
  // The service owns cancellation for queued work: a caller-embedded
  // DcsgaOptions::cancel pointer could dangle before the executor runs the
  // job and would shadow the per-job token (making Cancel(id) a silent
  // no-op for the seed loop), so it is stripped — Cancel(JobId) is the one
  // cancellation path.
  job->request.ga_solver.cancel = nullptr;
  if (journal_ != nullptr) {
    // Durable admission: the Admitted record lands (and, under kAlways,
    // fsyncs) before the caller gets its JobId — acked implies journaled. A
    // failed append fails the Submit with nothing admitted.
    JournalAdmittedRecord record;
    record.job_id = job->id;
    record.tenant = tenant_id;
    record.admission_index = admission_seq_ + 1;
    record.request = job->request;
    const Status appended = journal_->AppendAdmitted(record);
    if (!appended.ok()) {
      --next_job_id_;
      return appended;
    }
    admission_seq_ = record.admission_index;
  }
  jobs_.emplace(job->id, job);
  // Idle catch-up of the fair clock: a tenant rejoining after an idle
  // stretch resumes at the active floor instead of replaying its banked
  // credit and monopolizing the executors.
  if (tenant.queue.empty() && !tenant.busy) {
    tenant.vtime = MinActiveVtimeLocked(tenant, tenant.vtime);
  }
  tenant.queue.push_back(QueuedOp{job});
  ++tenant.num_queued_jobs;
  ++tenant.stats.submitted;
  ++num_queued_jobs_;
  queued_request_bytes_ += bytes;
  ++num_submitted_;
  if (HasDeadline(job->request)) {
    // Register with the watchdog; waking it re-derives the sleep horizon,
    // which this job may have moved up.
    deadline_jobs_.push_back(job);
    deadline_work_.notify_one();
  }
  work_available_.notify_one();
  return job->id;
}

Result<JobId> MiningService::Submit(MiningRequest request) {
  return Submit(TenantId{0}, std::move(request));
}

Status MiningService::ApplyUpdate(TenantId tenant_id, UpdateSide side,
                                  VertexId u, VertexId v, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::Cancelled("mining service is shutting down");
  }
  if (tenant_id >= tenants_.size()) {
    return Status::InvalidArgument("unknown tenant id " +
                                   std::to_string(tenant_id));
  }
  Tenant& tenant = *tenants_[tenant_id];
  // Eager validation (against the tenant's fixed vertex universe) keeps the
  // deferred apply infallible, so a bad update is reported to its submitter
  // instead of poisoning the queue. num_vertices() is immutable, so reading
  // it while the tenant's session mines is safe.
  DCS_RETURN_NOT_OK(MinerSession::ValidateUpdate(tenant.session.num_vertices(),
                                                 u, v, delta));
  QueuedOp op;
  op.side = side;
  op.u = u;
  op.v = v;
  op.delta = delta;
  tenant.queue.push_back(std::move(op));
  work_available_.notify_one();
  return Status::OK();
}

Status MiningService::ApplyUpdate(UpdateSide side, VertexId u, VertexId v,
                                  double delta) {
  return ApplyUpdate(TenantId{0}, side, u, v, delta);
}

// Fills the cheap JobStatus fields under the lock, then releases it for the
// deep MiningResponse copy: a kDone job is terminal and never mutated again,
// so copying its (potentially large) response outside the mutex is safe and
// keeps pollers from stalling Submit and the executors' finish paths.
JobStatus MiningService::TakeSnapshot(std::unique_lock<std::mutex>* lock,
                                      const std::shared_ptr<Job>& job) const {
  JobStatus status;
  status.id = job->id;
  status.tenant = job->tenant;
  status.state = job->state;
  status.failure = job->failure;
  status.queue_seconds = job->queue_seconds;
  status.run_seconds = job->run_seconds;
  status.finish_index = job->finish_index;
  lock->unlock();
  if (status.state == JobState::kDone) status.response = job->response;
  return status;
}

Result<JobStatus> MiningService::Poll(JobId id) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown (or evicted) job id " +
                            std::to_string(id));
  }
  // Pin the job before TakeSnapshot drops the lock: jobs_ is the sole
  // long-term owner, and a concurrent finish can evict this entry (and with
  // it the Job) while the unlocked response copy is in flight.
  std::shared_ptr<Job> job = it->second;
  return TakeSnapshot(&lock, job);
}

Result<JobStatus> MiningService::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown (or evicted) job id " +
                            std::to_string(id));
  }
  // Hold the job alive across the wait: eviction only erases the map entry.
  std::shared_ptr<Job> job = it->second;
  // Registered waiters block destruction: ~MiningService may not tear down
  // mutex_/job_finished_ while we sleep on them.
  {
    ScopedWaiter waiter(this);
    job_finished_.wait(lock, [&job] {
      const JobState s = job->state;
      return s == JobState::kDone || s == JobState::kFailed ||
             s == JobState::kCancelled;
    });
  }
  return TakeSnapshot(&lock, job);
}

Result<JobStatus> MiningService::Cancel(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown (or evicted) job id " +
                            std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  // Explicit cancellation wins over a racing deadline: the caller asked
  // first, so the terminal state is kCancelled even if the watchdog also
  // fired this job's token (see Job::user_cancelled).
  job->user_cancelled = true;
  job->cancel.Cancel();
  if (job->state == JobState::kQueued) {
    // Terminal immediately: the executor skips the stale queue entry, so a
    // cancelled queued job is guaranteed to never start.
    LeaveQueueLocked(tenants_[job->tenant].get(), job.get());
    job->state = JobState::kCancelled;
    FinishLocked(job);
  }
  // A running job finishes cancelling asynchronously; terminal jobs no-op.
  return TakeSnapshot(&lock, job);
}

void MiningService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_available_.notify_all();
}

void MiningService::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Same registration as Wait(): the destructor must not tear down
  // mutex_/job_finished_ while a drainer sleeps on them.
  ScopedWaiter waiter(this);
  job_finished_.wait(lock, [this] { return IdleLocked() || stopping_; });
}

bool MiningService::IdleLocked() const {
  for (const auto& tenant : tenants_) {
    if (tenant->busy || !tenant->queue.empty()) return false;
  }
  return num_running_jobs_ == 0;
}

size_t MiningService::num_tenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

Result<TenantStats> MiningService::tenant_stats(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tenant >= tenants_.size()) {
    return Status::InvalidArgument("unknown tenant id " +
                                   std::to_string(tenant));
  }
  TenantStats stats = tenants_[tenant]->stats;
  stats.virtual_time = tenants_[tenant]->vtime;
  return stats;
}

uint64_t MiningService::num_submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_submitted_;
}

size_t MiningService::num_pending_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_queued_jobs_ + num_running_jobs_;
}

size_t MiningService::num_active_waiters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_waiters_;
}

std::vector<JobId> MiningService::recovered_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovered_job_ids_;
}

uint64_t MiningService::num_recovered_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovered_job_ids_.size();
}

Result<JobJournalStats> MiningService::journal_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (journal_ != nullptr) return journal_->stats();
  if (!journal_error_.ok()) return journal_error_;
  return Status::NotFound("no job journal configured");
}

uint64_t MiningService::num_deadline_exceeded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_deadline_exceeded_;
}

uint64_t MiningService::num_admission_rejections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_admission_rejections_;
}

size_t MiningService::queued_request_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_request_bytes_;
}

HealthState MiningService::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

uint64_t MiningService::num_health_transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& tenant : tenants_) total += tenant->health_transitions;
  return total;
}

uint64_t MiningService::num_store_write_errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& tenant : tenants_) total += tenant->store_write_errors;
  return total;
}

uint64_t MiningService::num_store_retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& tenant : tenants_) total += tenant->store_retries;
  return total;
}

void MiningService::LeaveQueueLocked(Tenant* tenant, Job* job) {
  DCS_CHECK(job->state == JobState::kQueued);
  job->queue_seconds = job->since_submit.Seconds();
  DCS_CHECK(tenant->num_queued_jobs > 0);
  --tenant->num_queued_jobs;
  DCS_CHECK(num_queued_jobs_ > 0);
  --num_queued_jobs_;
  DCS_CHECK(queued_request_bytes_ >= job->approx_bytes);
  queued_request_bytes_ -= job->approx_bytes;
  tenant->stats.total_queue_seconds += job->queue_seconds;
  tenant->stats.max_queue_seconds =
      std::max(tenant->stats.max_queue_seconds, job->queue_seconds);
}

void MiningService::ExpireQueuedLocked(const std::shared_ptr<Job>& job) {
  DCS_CHECK(job->state == JobState::kQueued);
  Tenant* tenant = tenants_[job->tenant].get();
  LeaveQueueLocked(tenant, job.get());
  job->state = JobState::kFailed;
  job->failure = Status::DeadlineExceeded(
      "deadline of " + std::to_string(job->request.deadline_seconds) +
      "s elapsed before the job left the queue");
  ++num_deadline_exceeded_;
  ++tenant->stats.deadline_exceeded;
  FinishLocked(job);
}

void MiningService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // One pass over the watched jobs: prune terminal entries, expire
    // overdue ones, and derive the next sleep horizon from the rest.
    double earliest = 0.0;
    bool have_pending = false;
    for (auto it = deadline_jobs_.begin(); it != deadline_jobs_.end();) {
      const std::shared_ptr<Job>& job = *it;
      const JobState state = job->state;
      if (state != JobState::kQueued && state != JobState::kRunning) {
        it = deadline_jobs_.erase(it);
        continue;
      }
      const double remaining =
          job->request.deadline_seconds - job->since_submit.Seconds();
      if (remaining > 0.0) {
        earliest = have_pending ? std::min(earliest, remaining) : remaining;
        have_pending = true;
        ++it;
        continue;
      }
      if (state == JobState::kQueued) {
        // Guaranteed to never start: the executor skips the stale queue
        // entry exactly like a cancelled-while-queued job's.
        ExpireQueuedLocked(job);
      } else {
        // Running: fire the per-job token. The solve aborts between seed
        // chunks with no partial result, and the executor's finish path
        // maps the Cancelled status to kFailed + kDeadlineExceeded. If the
        // solve completes before observing the token, the job stays kDone
        // with its full (bit-identical) result — the deadline is a latency
        // bound, not a result invalidator.
        job->deadline_fired = true;
        job->cancel.Cancel();
      }
      it = deadline_jobs_.erase(it);
    }
    if (stopping_) return;
    if (!have_pending) {
      deadline_work_.wait(lock);  // re-derives on submit/shutdown wakeups
    } else {
      deadline_work_.wait_for(lock, std::chrono::duration<double>(earliest));
    }
  }
}

void MiningService::FinishLocked(const std::shared_ptr<Job>& job) {
  DCS_CHECK(job->state == JobState::kDone || job->state == JobState::kFailed ||
            job->state == JobState::kCancelled)
      << "FinishLocked on a non-terminal job";
  job->finish_index = ++finish_seq_;
  JournalDoneLocked(job);
  // A recovered job cancelled before its tenant re-registered has no Tenant
  // object to account against — everything else updates its tenant's stats.
  if (job->tenant < tenants_.size()) {
    TenantStats& stats = tenants_[job->tenant]->stats;
    switch (job->state) {
      case JobState::kDone:
        ++stats.completed;
        break;
      case JobState::kFailed:
        ++stats.failed;
        break;
      case JobState::kCancelled:
        ++stats.cancelled;
        break;
      case JobState::kQueued:
      case JobState::kRunning:
        break;
    }
  }
  finished_order_.push_back(job->id);
  if (options_.max_finished_jobs != 0) {
    while (finished_order_.size() > options_.max_finished_jobs) {
      jobs_.erase(finished_order_.front());
      finished_order_.pop_front();
    }
  }
  job_finished_.notify_all();
}

MiningService::Tenant* MiningService::PickTenantLocked() {
  Tenant* best = nullptr;
  int64_t best_priority = std::numeric_limits<int64_t>::min();
  for (const auto& tenant : tenants_) {
    if (tenant->busy || tenant->queue.empty()) continue;
    const int64_t priority = HeadPriorityLocked(*tenant);
    // Strict inequalities make ties resolve to the lowest tenant id — the
    // iteration order — which is what keeps scheduling decisions
    // deterministic for the fairness tests.
    if (best == nullptr || priority > best_priority ||
        (priority == best_priority && tenant->vtime < best->vtime)) {
      best = tenant.get();
      best_priority = priority;
    }
  }
  return best;
}

int64_t MiningService::HeadPriorityLocked(const Tenant& tenant) const {
  for (const QueuedOp& op : tenant.queue) {
    if (op.job != nullptr && op.job->state == JobState::kQueued) {
      return op.job->request.priority;
    }
  }
  // Only fenced updates / stale entries: the queue still needs draining,
  // but it never outranks a tenant with a live job.
  return std::numeric_limits<int64_t>::min();
}

double MiningService::MinActiveVtimeLocked(const Tenant& except,
                                           double fallback) const {
  double floor = fallback;
  bool have_active = false;
  for (const auto& tenant : tenants_) {
    if (tenant.get() == &except) continue;
    if (!tenant->busy && tenant->queue.empty()) continue;
    floor = have_active ? std::min(floor, tenant->vtime) : tenant->vtime;
    have_active = true;
  }
  // Never rewind: catch-up only ever moves a rejoining tenant forward.
  return std::max(fallback, floor);
}

void MiningService::RunTenantOnce(std::unique_lock<std::mutex>* lock,
                                  Tenant* tenant) {
  tenant->busy = true;
  // Cascade the wakeup: this executor absorbed a notify to serve one
  // tenant, but other tenants may be runnable too (a notify_one can land on
  // an executor that was already between wait and re-pick). Waking one peer
  // per dispatch guarantees every runnable tenant eventually has an
  // executor without thundering the whole pool.
  if (PickTenantLocked() != nullptr) work_available_.notify_one();
  while (!tenant->queue.empty()) {
    QueuedOp op = std::move(tenant->queue.front());
    tenant->queue.pop_front();

    if (op.job == nullptr) {
      // Fenced streaming update: applied strictly after the jobs this
      // tenant submitted before it, strictly before those submitted after.
      // Pre-validated, so a failure here is a library bug. tenant->busy
      // keeps Drain from returning — and other executors off this session —
      // inside the unlocked apply window.
      lock->unlock();
      const Status applied =
          tenant->session.ApplyUpdate(op.side, op.u, op.v, op.delta);
      DCS_CHECK(applied.ok()) << applied.ToString();
      lock->lock();
      continue;
    }

    std::shared_ptr<Job> job = std::move(op.job);
    if (job->state != JobState::kQueued) {
      // Cancelled (or deadline-expired) while queued: the job went terminal
      // under Cancel() or the watchdog; this is just its stale queue entry.
      continue;
    }
    if (HasDeadline(job->request) &&
        job->since_submit.Seconds() >= job->request.deadline_seconds) {
      // Dequeue-time expiry check: with a deadline shorter than the
      // watchdog's wakeup latency the job must still fail deterministically
      // instead of racing into a solve.
      ExpireQueuedLocked(job);
      continue;
    }

    LeaveQueueLocked(tenant, job.get());
    job->state = JobState::kRunning;
    ++tenant->stats.dispatched;
    // Advance the fair clock at dispatch (not completion) so concurrent
    // executors already see this tenant's consumed share while its job is
    // still solving.
    tenant->vtime += 1.0 / tenant->options.weight;
    ++num_running_jobs_;
    if (journal_ != nullptr && !journal_->AppendStarted(job->id).ok()) {
      // Started is a dispatch hint, not an ack: losing it only costs the
      // next recovery a re-run it would have done anyway.
      ++journal_append_errors_;
    }

    lock->unlock();
    WallTimer run_timer;
    // Demote solver exceptions to the Status contract (libdcs is
    // exception-free, registered solvers need not be): an escape here would
    // std::terminate the executor thread and take every queued job with it.
    Result<MiningResponse> mined = Status::Internal("not mined");
    try {
      mined = tenant->session.Mine(job->request, &job->cancel);
    } catch (const std::exception& e) {
      mined = Status::Internal(std::string("solver threw: ") + e.what());
    } catch (...) {
      mined = Status::Internal("solver threw a non-std exception");
    }
    const double run_seconds = run_timer.Seconds();
    // Ladder step on the executor thread (the session's only user while
    // tenant->busy is held), so the mirror below reflects write-back
    // failures as soon as the store reported them — not one job late.
    tenant->session.RefreshHealth();
    lock->lock();

    --num_running_jobs_;
    tenant->health = tenant->session.health();
    tenant->health_transitions = tenant->session.num_health_transitions();
    tenant->store_write_errors = tenant->session.num_store_write_errors();
    tenant->store_retries = tenant->session.num_store_retries();
    HealthState worst = HealthState::kHealthy;
    for (const auto& t : tenants_) worst = WorseOf(worst, t->health);
    health_ = worst;
    job->run_seconds = run_seconds;
    tenant->stats.total_run_seconds += run_seconds;
    if (mined.ok()) {
      job->state = JobState::kDone;
      job->response = std::move(*mined);
    } else if (mined.status().IsCancelled()) {
      if (job->deadline_fired && !job->user_cancelled) {
        // The watchdog — not a caller — stopped this solve: surface it as
        // the failure it is, carrying kDeadlineExceeded, with no partial
        // result. The session stays reusable for the next queued job.
        job->state = JobState::kFailed;
        job->failure = Status::DeadlineExceeded(
            "deadline of " + std::to_string(job->request.deadline_seconds) +
            "s exceeded while running");
        ++num_deadline_exceeded_;
        ++tenant->stats.deadline_exceeded;
      } else {
        job->state = JobState::kCancelled;
      }
    } else {
      // Failure propagation: a bad measure/solver id or invalid request
      // becomes a terminal failed job carrying the solver's status — the
      // service itself never crashes and keeps draining the queues.
      job->state = JobState::kFailed;
      job->failure = mined.status();
    }
    FinishLocked(job);
    // One job per scheduling decision: releasing the tenant and re-picking
    // is what lets priorities and the fair clock interleave tenants.
    break;
  }
  tenant->busy = false;
  if (!tenant->queue.empty()) {
    // This tenant still has work (a job behind the one just run, or fenced
    // updates); hand it to the next free executor through a fresh pick.
    work_available_.notify_one();
  }
  // The queue may have emptied on a skip/update/expire path whose
  // FinishLocked-time notify saw a non-empty queue (or that never finished
  // a job at all) — Drain watches the all-idle condition, so re-check it
  // here, after busy dropped.
  if (IdleLocked()) job_finished_.notify_all();
}

void MiningService::ExecutorLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Tenant* tenant = nullptr;
    work_available_.wait(lock, [this, &tenant] {
      if (stopping_) return true;
      if (paused_) return false;
      tenant = PickTenantLocked();
      return tenant != nullptr;
    });
    if (stopping_) return;
    RunTenantOnce(&lock, tenant);
  }
}

}  // namespace dcs
