#include "store/job_journal.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "util/byte_codec.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace dcs {

namespace {

// "DCSJRNL1" as a little-endian u64.
constexpr RecordLogFormat kJournalFormat = {
    "job journal", 0x314C4E524A534344ull, JobJournal::kFormatVersion,
    JobJournal::kDoneRecord};

Status JournalTruncated(const char* what) {
  return Status::InvalidArgument(std::string("journal ") + what +
                                 " payload truncated");
}

// ---- record payloads -------------------------------------------------------

std::string SerializeAdmitted(const JournalAdmittedRecord& record) {
  std::string out;
  AppendU64(record.job_id, &out);
  AppendU32(record.tenant, &out);
  AppendU64(record.admission_index, &out);
  out += JobJournal::EncodeRequest(record.request);
  return out;
}

Result<JournalAdmittedRecord> ParseAdmitted(std::span<const uint8_t> bytes) {
  JournalAdmittedRecord record;
  size_t cursor = 0;
  if (!ReadU64(bytes, &cursor, &record.job_id) ||
      !ReadU32(bytes, &cursor, &record.tenant) ||
      !ReadU64(bytes, &cursor, &record.admission_index)) {
    return JournalTruncated("admitted");
  }
  DCS_ASSIGN_OR_RETURN(record.request,
                       JobJournal::DecodeRequest(bytes.subspan(cursor)));
  return record;
}

std::string SerializeDone(const JournalDoneRecord& record,
                          const std::string& response_content) {
  std::string out;
  AppendU64(record.job_id, &out);
  AppendU32(static_cast<uint32_t>(record.state), &out);
  AppendU32(record.status_code, &out);
  AppendString(record.status_message, &out);
  AppendU64(record.response_fingerprint, &out);
  AppendU32(record.has_response ? 1 : 0, &out);
  if (record.has_response) out += response_content;
  return out;
}

Result<JournalDoneRecord> ParseDone(std::span<const uint8_t> bytes) {
  JournalDoneRecord record;
  size_t cursor = 0;
  uint32_t state = 0, has_response = 0;
  if (!ReadU64(bytes, &cursor, &record.job_id) ||
      !ReadU32(bytes, &cursor, &state) ||
      !ReadU32(bytes, &cursor, &record.status_code) ||
      !ReadString(bytes, &cursor, &record.status_message) ||
      !ReadU64(bytes, &cursor, &record.response_fingerprint) ||
      !ReadU32(bytes, &cursor, &has_response)) {
    return JournalTruncated("done");
  }
  if (state > static_cast<uint32_t>(JournalTerminalState::kCancelled) ||
      has_response > 1) {
    return Status::InvalidArgument("journal done payload fields invalid");
  }
  record.state = static_cast<JournalTerminalState>(state);
  record.has_response = has_response != 0;
  const std::span<const uint8_t> content = bytes.subspan(cursor);
  if (!record.has_response) {
    if (!content.empty()) {
      return Status::InvalidArgument("journal done payload has trailing bytes");
    }
    return record;
  }
  // The fingerprint must match the stored content image — a checksum-valid
  // frame whose embedded fingerprint disagrees is content rot, not ours.
  if (PageChecksum(content.data(), content.size()) !=
      record.response_fingerprint) {
    return Status::InvalidArgument("journal done fingerprint mismatch");
  }
  DCS_ASSIGN_OR_RETURN(record.response,
                       JobJournal::DecodeResponseContent(content));
  return record;
}

void AppendRanking(const std::vector<RankedSubgraph>& ranking,
                   std::string* out) {
  AppendU32(static_cast<uint32_t>(ranking.size()), out);
  for (const RankedSubgraph& subgraph : ranking) {
    AppendU32(static_cast<uint32_t>(subgraph.vertices.size()), out);
    for (const VertexId v : subgraph.vertices) AppendU32(v, out);
    AppendU32(static_cast<uint32_t>(subgraph.weights.size()), out);
    for (const double w : subgraph.weights) AppendDoubleBits(w, out);
    AppendDoubleBits(subgraph.value, out);
    AppendDoubleBits(subgraph.ratio_bound, out);
    AppendU32(subgraph.positive_clique ? 1 : 0, out);
  }
}

bool ParseRanking(std::span<const uint8_t> bytes, size_t* cursor,
                  std::vector<RankedSubgraph>* ranking) {
  uint32_t count = 0;
  if (!ReadU32(bytes, cursor, &count)) return false;
  // Element counts are bounded by the remaining payload before any resize,
  // so a corrupt length cannot drive a huge allocation.
  if (count > (bytes.size() - *cursor) / 4) return false;
  ranking->resize(count);
  for (RankedSubgraph& subgraph : *ranking) {
    uint32_t nv = 0;
    if (!ReadU32(bytes, cursor, &nv) ||
        nv > (bytes.size() - *cursor) / 4) {
      return false;
    }
    subgraph.vertices.resize(nv);
    for (VertexId& v : subgraph.vertices) {
      if (!ReadU32(bytes, cursor, &v)) return false;
    }
    uint32_t nw = 0;
    if (!ReadU32(bytes, cursor, &nw) ||
        nw > (bytes.size() - *cursor) / 8) {
      return false;
    }
    subgraph.weights.resize(nw);
    for (double& w : subgraph.weights) {
      if (!ReadDoubleBits(bytes, cursor, &w)) return false;
    }
    uint32_t clique = 0;
    if (!ReadDoubleBits(bytes, cursor, &subgraph.value) ||
        !ReadDoubleBits(bytes, cursor, &subgraph.ratio_bound) ||
        !ReadU32(bytes, cursor, &clique) || clique > 1) {
      return false;
    }
    subgraph.positive_clique = clique != 0;
  }
  return true;
}

// Request flag byte 7 is reserved. It once carried the removed fast_math
// option (a reassociating affinity reduction); it is written as 0, and a 0
// or 1 read back is ignored, so journals that set it still replay — their
// recovered jobs now mine the exact, bit-identical answer.
constexpr uint8_t kReservedRequestFlag = 0;

}  // namespace

// ---- request / response images ---------------------------------------------

std::string JobJournal::EncodeRequest(const MiningRequest& request) {
  std::string out;
  AppendU32(static_cast<uint32_t>(request.measure), &out);
  AppendDoubleBits(request.alpha, &out);
  const uint8_t flags[8] = {
      static_cast<uint8_t>(request.flip ? 1 : 0),
      static_cast<uint8_t>(request.discretize ? 1 : 0),
      static_cast<uint8_t>(request.clamp_weights_above ? 1 : 0),
      static_cast<uint8_t>(request.disjoint ? 1 : 0),
      static_cast<uint8_t>(request.warm_start ? 1 : 0),
      static_cast<uint8_t>(request.ga_solver.collect_cliques ? 1 : 0),
      static_cast<uint8_t>(request.ga_solver.assume_nonnegative ? 1 : 0),
      kReservedRequestFlag};
  out.append(reinterpret_cast<const char*>(flags), sizeof(flags));
  if (request.discretize) {
    AppendDoubleBits(request.discretize->strong_pos, &out);
    AppendDoubleBits(request.discretize->weak_pos, &out);
    AppendDoubleBits(request.discretize->strong_neg, &out);
    AppendDoubleBits(request.discretize->level_two, &out);
    AppendDoubleBits(request.discretize->level_one, &out);
  }
  if (request.clamp_weights_above) {
    AppendDoubleBits(*request.clamp_weights_above, &out);
  }
  AppendU32(request.top_k, &out);
  AppendDoubleBits(request.min_density, &out);
  AppendDoubleBits(request.min_affinity, &out);
  const DcsgaOptions& ga = request.ga_solver;
  AppendU32(static_cast<uint32_t>(ga.shrink), &out);
  AppendDoubleBits(ga.seacd.descent.epsilon_scale, &out);
  AppendU64(ga.seacd.descent.max_iterations, &out);
  AppendU32(ga.seacd.max_rounds, &out);
  AppendDoubleBits(ga.sea.replicator.objective_tolerance, &out);
  AppendU64(ga.sea.replicator.max_sweeps, &out);
  AppendU32(ga.sea.max_rounds, &out);
  AppendDoubleBits(ga.refinement_descent.epsilon_scale, &out);
  AppendU64(ga.refinement_descent.max_iterations, &out);
  AppendU32(ga.parallelism, &out);
  // ga.cancel is a borrowed pointer into the crashed process — by
  // construction it is never serialized; recovery re-owns cancellation.
  AppendU32(std::bit_cast<uint32_t>(request.priority), &out);
  AppendDoubleBits(request.deadline_seconds, &out);
  AppendString(request.ad_solver_name, &out);
  AppendString(request.ga_solver_name, &out);
  return out;
}

Result<MiningRequest> JobJournal::DecodeRequest(
    std::span<const uint8_t> bytes) {
  MiningRequest request;
  size_t cursor = 0;
  uint32_t measure = 0;
  if (!ReadU32(bytes, &cursor, &measure) ||
      !ReadDoubleBits(bytes, &cursor, &request.alpha)) {
    return JournalTruncated("request");
  }
  if (measure > static_cast<uint32_t>(Measure::kBoth)) {
    return Status::InvalidArgument("journal request measure out of range");
  }
  request.measure = static_cast<Measure>(measure);
  if (bytes.size() - cursor < 8) return JournalTruncated("request");
  const uint8_t* flags = bytes.data() + cursor;
  cursor += 8;
  for (size_t i = 0; i < 8; ++i) {
    if (flags[i] > 1) {
      return Status::InvalidArgument("journal request flags invalid");
    }
  }
  request.flip = flags[0] != 0;
  if (flags[1] != 0) {
    DiscretizeSpec spec;
    if (!ReadDoubleBits(bytes, &cursor, &spec.strong_pos) ||
        !ReadDoubleBits(bytes, &cursor, &spec.weak_pos) ||
        !ReadDoubleBits(bytes, &cursor, &spec.strong_neg) ||
        !ReadDoubleBits(bytes, &cursor, &spec.level_two) ||
        !ReadDoubleBits(bytes, &cursor, &spec.level_one)) {
      return JournalTruncated("request");
    }
    request.discretize = spec;
  }
  if (flags[2] != 0) {
    double clamp = 0.0;
    if (!ReadDoubleBits(bytes, &cursor, &clamp)) {
      return JournalTruncated("request");
    }
    request.clamp_weights_above = clamp;
  }
  request.disjoint = flags[3] != 0;
  request.warm_start = flags[4] != 0;
  request.ga_solver.collect_cliques = flags[5] != 0;
  request.ga_solver.assume_nonnegative = flags[6] != 0;
  // flags[7] is reserved (see kReservedRequestFlag): validated above, ignored.
  uint32_t shrink = 0, priority_bits = 0;
  DcsgaOptions& ga = request.ga_solver;
  if (!ReadU32(bytes, &cursor, &request.top_k) ||
      !ReadDoubleBits(bytes, &cursor, &request.min_density) ||
      !ReadDoubleBits(bytes, &cursor, &request.min_affinity) ||
      !ReadU32(bytes, &cursor, &shrink) ||
      !ReadDoubleBits(bytes, &cursor, &ga.seacd.descent.epsilon_scale) ||
      !ReadU64(bytes, &cursor, &ga.seacd.descent.max_iterations) ||
      !ReadU32(bytes, &cursor, &ga.seacd.max_rounds) ||
      !ReadDoubleBits(bytes, &cursor,
                      &ga.sea.replicator.objective_tolerance) ||
      !ReadU64(bytes, &cursor, &ga.sea.replicator.max_sweeps) ||
      !ReadU32(bytes, &cursor, &ga.sea.max_rounds) ||
      !ReadDoubleBits(bytes, &cursor,
                      &ga.refinement_descent.epsilon_scale) ||
      !ReadU64(bytes, &cursor, &ga.refinement_descent.max_iterations) ||
      !ReadU32(bytes, &cursor, &ga.parallelism) ||
      !ReadU32(bytes, &cursor, &priority_bits) ||
      !ReadDoubleBits(bytes, &cursor, &request.deadline_seconds) ||
      !ReadString(bytes, &cursor, &request.ad_solver_name) ||
      !ReadString(bytes, &cursor, &request.ga_solver_name)) {
    return JournalTruncated("request");
  }
  if (shrink > static_cast<uint32_t>(ShrinkKind::kReplicator)) {
    return Status::InvalidArgument("journal request shrink kind invalid");
  }
  ga.shrink = static_cast<ShrinkKind>(shrink);
  request.priority = std::bit_cast<int32_t>(priority_bits);
  if (cursor != bytes.size()) {
    return Status::InvalidArgument("journal request has trailing bytes");
  }
  return request;
}

std::string JobJournal::EncodeResponseContent(const MiningResponse& response) {
  std::string out;
  AppendRanking(response.average_degree, &out);
  AppendRanking(response.graph_affinity, &out);
  return out;
}

Result<MiningResponse> JobJournal::DecodeResponseContent(
    std::span<const uint8_t> bytes) {
  MiningResponse response;
  size_t cursor = 0;
  if (!ParseRanking(bytes, &cursor, &response.average_degree) ||
      !ParseRanking(bytes, &cursor, &response.graph_affinity) ||
      cursor != bytes.size()) {
    return Status::InvalidArgument("journal response content invalid");
  }
  return response;
}

uint64_t JobJournal::ResponseFingerprint(const MiningResponse& response) {
  const std::string content = EncodeResponseContent(response);
  return PageChecksum(content.data(), content.size());
}

// ---- open / append ---------------------------------------------------------

JobJournal::JobJournal(std::string path, JobJournalOptions options,
                       RecordLog log)
    : path_(std::move(path)), options_(options), log_(std::move(log)) {
  if (options_.durability == JournalDurability::kGroupCommit) {
    flusher_ = std::thread(&JobJournal::FlusherLoop, this);
  }
}

Result<std::shared_ptr<JobJournal>> JobJournal::Open(
    std::string path, JobJournalOptions options) {
  DCS_ASSIGN_OR_RETURN(
      RecordLog log,
      RecordLog::Open(path, kJournalFormat, options.create_if_missing));
  auto journal = std::shared_ptr<JobJournal>(
      new JobJournal(std::move(path), options, std::move(log)));
  std::lock_guard<std::mutex> lock(journal->mutex_);
  journal->frames_ = journal->log_.Scan();
  for (const RecordFrame& frame : journal->frames_) {
    ++journal->records_by_type_[frame.type];
  }
  return journal;
}

JobJournal::~JobJournal() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirty_) (void)SyncLocked();  // final group-commit flush
}

Status JobJournal::SyncLocked() {
  // The fsync is a durability point — the crash harness kills the process
  // here — and a real fsync failure must surface (an acked Admitted record
  // that never reached the platter is a broken promise under kAlways).
  dirty_ = false;
  if (FaultHit(fault_sites::kJournalFsync)) {
    return FaultInjection::InjectedError(fault_sites::kJournalFsync);
  }
  DCS_RETURN_NOT_OK(log_.Sync());
  ++fsyncs_;
  return Status::OK();
}

Status JobJournal::AppendLocked(uint32_t type, uint64_t job_id,
                                const std::string& payload) {
  DCS_ASSIGN_OR_RETURN(
      RecordFrame frame,
      log_.Append(type, job_id, payload, fault_sites::kJournalAppend));
  frames_.push_back(frame);
  ++records_by_type_[type];
  if (options_.durability == JournalDurability::kAlways) return SyncLocked();
  dirty_ = true;
  flusher_cv_.notify_one();
  return Status::OK();
}

Status JobJournal::AppendAdmitted(const JournalAdmittedRecord& record) {
  const std::string payload = SerializeAdmitted(record);
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendLocked(kAdmittedRecord, record.job_id, payload);
}

Status JobJournal::AppendStarted(uint64_t job_id) {
  std::string payload;
  AppendU64(job_id, &payload);
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendLocked(kStartedRecord, job_id, payload);
}

Status JobJournal::AppendDone(const JournalDoneRecord& record) {
  JournalDoneRecord stamped = record;
  std::string content;
  if (stamped.has_response) {
    content = EncodeResponseContent(stamped.response);
    stamped.response_fingerprint = PageChecksum(content.data(),
                                                content.size());
  } else {
    stamped.response_fingerprint = 0;
  }
  const std::string payload = SerializeDone(stamped, content);
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendLocked(kDoneRecord, record.job_id, payload);
}

// ---- replay ----------------------------------------------------------------

Result<std::vector<JournalReplayJob>> JobJournal::Replay() {
  std::lock_guard<std::mutex> lock(mutex_);
  ScopedFileLock file_lock = log_.SharedLock();

  std::unordered_map<uint64_t, size_t> by_job;  // job id -> out index
  std::vector<JournalReplayJob> out;
  for (const RecordFrame& frame : frames_) {
    // Content verification happens here, where the bytes are used: the
    // structural scan trusted nothing but framing. The journal.replay
    // fault site models a record rotting between scan and replay (fail)
    // or the process dying mid-replay (crash); it is never retried. A
    // rotted record reads as absent (counted by the log); later records
    // are still framed independently, so the walk continues.
    const Result<std::vector<uint8_t>> payload =
        log_.ReadFrame(frame, fault_sites::kJournalReplay, 0);
    if (!payload.ok()) continue;
    switch (frame.type) {
      case kAdmittedRecord: {
        Result<JournalAdmittedRecord> admitted = ParseAdmitted(*payload);
        if (!admitted.ok() || admitted->job_id != frame.key) {
          log_.CountCorruptPage();
          break;
        }
        if (by_job.count(admitted->job_id) != 0) break;  // first wins
        by_job.emplace(admitted->job_id, out.size());
        JournalReplayJob job;
        job.admitted = std::move(*admitted);
        out.push_back(std::move(job));
        break;
      }
      case kStartedRecord: {
        uint64_t job_id = 0;
        size_t payload_cursor = 0;
        if (!ReadU64(*payload, &payload_cursor, &job_id) ||
            payload_cursor != payload->size() || job_id != frame.key) {
          log_.CountCorruptPage();
          break;
        }
        const auto it = by_job.find(job_id);
        if (it != by_job.end()) out[it->second].started = true;
        break;
      }
      default: {
        Result<JournalDoneRecord> done = ParseDone(*payload);
        if (!done.ok() || done->job_id != frame.key) {
          log_.CountCorruptPage();
          break;
        }
        const auto it = by_job.find(done->job_id);
        // Exactly-once: the first Done record per job is authoritative; a
        // duplicate (possible if a crash landed between FinishLocked and
        // the ack during a previous recovery) is ignored.
        if (it != by_job.end() && !out[it->second].done) {
          out[it->second].done = true;
          out[it->second].done_record = std::move(*done);
        }
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalReplayJob& a, const JournalReplayJob& b) {
              return a.admitted.admission_index != b.admitted.admission_index
                         ? a.admitted.admission_index <
                               b.admitted.admission_index
                         : a.admitted.job_id < b.admitted.job_id;
            });
  return out;
}

Status JobJournal::TruncateUnreliableTail() {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_.TruncateUnreliableTail();
}

Status JobJournal::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!dirty_) return Status::OK();
  return SyncLocked();
}

// ---- introspection ---------------------------------------------------------

JobJournalStats JobJournal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JobJournalStats stats;
  const RecordLogCounters& log = log_.counters();
  stats.admitted_records = records_by_type_[kAdmittedRecord];
  stats.started_records = records_by_type_[kStartedRecord];
  stats.done_records = records_by_type_[kDoneRecord];
  stats.appended_records = log.appended_records;
  stats.fsyncs = fsyncs_;
  stats.corrupt_pages = log.corrupt_pages;
  stats.truncations = log.truncations;
  stats.truncated_tail_bytes = log.truncated_tail_bytes;
  stats.io_retries = log.io_retries;
  stats.file_bytes = log_.FileBytes();
  return stats;
}

std::vector<JournalRecordInfo> JobJournal::ListRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JournalRecordInfo> out;
  out.reserve(frames_.size());
  for (const RecordFrame& frame : frames_) {
    JournalRecordInfo info;
    info.type = frame.type;
    info.job_id = frame.key;
    info.offset = frame.offset;
    info.payload_bytes = frame.payload_bytes;
    out.push_back(info);
  }
  return out;
}

void JobJournal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    flusher_cv_.wait(lock, [this] { return shutdown_ || dirty_; });
    if (shutdown_) return;  // the destructor issues the final flush
    // Bounded batching window: absorb appends for up to flush_interval_ms,
    // then sync them in one fsync. Shutdown cuts the window short.
    flusher_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(options_.flush_interval_ms),
        [this] { return shutdown_; });
    if (shutdown_) return;
    if (dirty_) {
      // A failed group-commit fsync is not silent: Flush() surfaces it on
      // demand, and kAlways exists for callers that need per-append
      // guarantees.
      (void)SyncLocked();
    }
  }
}

Result<JournalFsckReport> JobJournal::Fsck(const std::string& path) {
  return RecordLog::Fsck(path, kJournalFormat);
}

}  // namespace dcs
