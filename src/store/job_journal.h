// JobJournal — the crash-consistent write-ahead log of MiningService jobs.
//
// The artifact store (store/artifact_store.h) makes *derived* state durable;
// this file makes *accepted work* durable. A MiningService configured with
// MiningServiceOptions::journal_path appends an `Admitted` record — tenant
// id, admission index, priority, deadline and the full serialized
// MiningRequest — before Submit returns success, a `Started` record when an
// executor dispatches the job, and a `Done` record — terminal state, status
// code/message, a content fingerprint and (for kDone) the serialized
// response — when it finishes. A process killed mid-storm therefore leaves a
// journal from which a restarted service recovers every acked job: Done jobs
// are re-exposed through Poll/Wait without re-running (exactly-once),
// incomplete jobs are resubmitted in their original admission order.
//
// On-disk format: a record log (store/record_log.h — superblock, frames,
// trust model, flock discipline and Fsck) under the magic "DCSJRNL1", with
// the job id as each frame's key. Replay re-verifies every payload checksum
// and parses every payload defensively, so torn tails and corrupt frames
// read as absent; the next append truncates an unreliable tail away. A
// rotted frame inside the reliable prefix stays on disk (later frames are
// still replayable behind it), and Fsck keeps reporting it.
//
// Durability: JournalDurability::kAlways fsyncs inside every append — an
// acked Submit survives power loss. kGroupCommit marks the file dirty and
// lets a background flusher fsync within a bounded interval — an acked
// Submit survives a process crash (the write() landed in the page cache)
// and loses at most the configured window to power failure. Both modes pass
// the crash harness (tests/crash), which kills the process *at* the append
// and fsync sites.
//
// Fault sites: journal.append (an append's write fails or the process dies
// mid-append), journal.fsync (a durability fsync fails or dies), and
// journal.replay (a record is dropped as corrupt during Replay, or the
// process dies mid-replay) — see util/fault_injection.h.
//
// Thread safety: all methods are safe from any thread (one internal mutex
// over the file descriptor and counters).

#ifndef DCS_STORE_JOB_JOURNAL_H_
#define DCS_STORE_JOB_JOURNAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/mining.h"
#include "store/record_log.h"
#include "util/status.h"

namespace dcs {

/// When an append becomes durable. See the file comment.
enum class JournalDurability : uint8_t {
  kAlways,       ///< fsync inside every append
  kGroupCommit,  ///< background flusher fsyncs within flush_interval_ms
};

/// Journal-level tuning. Transient I/O errors in an append are retried
/// within RecordLog::kMaxIoRetries.
struct JobJournalOptions {
  /// Create the file (with a fresh superblock) when absent. When false,
  /// opening a missing file fails with NotFound.
  bool create_if_missing = true;
  /// See JournalDurability. Group commit is the service default: an acked
  /// job survives a crash of this process either way, and the bounded
  /// flusher keeps the fsync cost off the Submit path.
  JournalDurability durability = JournalDurability::kGroupCommit;
  /// Upper bound on how long a group-commit append stays un-fsynced.
  double flush_interval_ms = 5.0;
};

/// Journal-lifetime counters (since Open).
struct JobJournalStats {
  /// Valid records the current file holds, by type (updated by the opening
  /// scan and every append through this handle).
  uint64_t admitted_records = 0;
  uint64_t started_records = 0;
  uint64_t done_records = 0;
  /// Records appended through this handle.
  uint64_t appended_records = 0;
  /// Durability fsyncs issued (per-append under kAlways, flusher passes
  /// under kGroupCommit).
  uint64_t fsyncs = 0;
  /// Frames rejected — bad magic, truncated frame, checksum mismatch, or an
  /// unparseable payload dropped by Replay.
  uint64_t corrupt_pages = 0;
  /// Unreliable-tail truncation events, and the bytes they discarded.
  uint64_t truncations = 0;
  uint64_t truncated_tail_bytes = 0;
  /// Transient I/O attempts that were retried.
  uint64_t io_retries = 0;
  /// Current file size in bytes.
  uint64_t file_bytes = 0;
};

/// One structurally valid record frame, for `dcs_store journal ls` and
/// tests.
struct JournalRecordInfo {
  uint32_t type = 0;  ///< 1 = admitted, 2 = started, 3 = done
  uint64_t job_id = 0;
  uint64_t offset = 0;
  uint64_t payload_bytes = 0;
};

/// Offline integrity report, for `dcs_store journal fsck`.
using JournalFsckReport = RecordLogFsckReport;

/// The terminal state a Done record carries. Mirrors the terminal half of
/// JobState (api/mining_service.h) without depending on it — the journal
/// sits below the service in the layering.
enum class JournalTerminalState : uint8_t {
  kDone = 0,
  kFailed = 1,
  kCancelled = 2,
};

/// Payload of an Admitted record: everything the service needs to re-run
/// the job after a restart. The request is serialized field-for-field with
/// exact IEEE-754 bit patterns (ga_solver.cancel is a pointer and is never
/// serialized — recovery re-owns cancellation).
struct JournalAdmittedRecord {
  uint64_t job_id = 0;
  uint32_t tenant = 0;
  /// Service-wide admission sequence number; replay resubmits incomplete
  /// jobs in this order per tenant.
  uint64_t admission_index = 0;
  MiningRequest request;
};

/// Payload of a Done record. For kDone the serialized response content
/// (subgraphs with exact double bits; telemetry is process state, never
/// journaled) rides along with its checksum fingerprint, so a recovered
/// response is bit-identical to the one the crashed process mined.
struct JournalDoneRecord {
  uint64_t job_id = 0;
  JournalTerminalState state = JournalTerminalState::kDone;
  /// StatusCode of the failure as its integer value; 0 (kOk) for kDone.
  uint32_t status_code = 0;
  std::string status_message;
  /// PageChecksum of the serialized response content; 0 when no response.
  uint64_t response_fingerprint = 0;
  bool has_response = false;
  MiningResponse response;
};

/// One job folded out of the log by Replay: its admission, whether a
/// Started record exists, and its Done record when it reached a terminal
/// state before the crash.
struct JournalReplayJob {
  JournalAdmittedRecord admitted;
  bool started = false;
  bool done = false;
  JournalDoneRecord done_record;
};

/// \brief Crash-consistent write-ahead log of MiningService jobs. See the
/// file comment for the format, trust and durability contract.
class JobJournal {
 public:
  /// Current on-disk format version; a file with a newer version is treated
  /// as unreadable (reset on the next append), never half-parsed.
  static constexpr uint32_t kFormatVersion = 1;

  /// Record type tags, as stored in the page header.
  static constexpr uint32_t kAdmittedRecord = 1;
  static constexpr uint32_t kStartedRecord = 2;
  static constexpr uint32_t kDoneRecord = 3;

  /// \brief Opens (or creates) the journal at `path`, validates the
  /// superblock and walks the frame chain structurally. A bad superblock
  /// marks the whole file untrusted — it opens empty and the first append
  /// rewrites it. I/O errors fail the open.
  static Result<std::shared_ptr<JobJournal>> Open(std::string path,
                                                  JobJournalOptions options = {});

  /// Final group-commit flush, then closes the file.
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// \brief Appends one record; on return under kAlways the record is
  /// fsynced, under kGroupCommit it is written and scheduled for the
  /// flusher. Admitted failures are meant to fail the Submit that issued
  /// them — durable admission means "acked implies journaled".
  Status AppendAdmitted(const JournalAdmittedRecord& record);
  Status AppendStarted(uint64_t job_id);
  Status AppendDone(const JournalDoneRecord& record);

  /// \brief Folds the log into one entry per admitted job, ordered by
  /// admission index. Every payload checksum is re-verified and every
  /// payload parsed defensively; a frame that fails either reads as absent
  /// (counted in corrupt_pages). Started/Done records without a surviving
  /// Admitted record are dropped; the first Done record per job wins.
  Result<std::vector<JournalReplayJob>> Replay();

  /// \brief Truncates an unreliable tail immediately instead of waiting for
  /// the next append — the recovery path calls this after Replay so a
  /// crashed-mid-append journal converges back to fsck-clean even if the
  /// recovered service never appends again. No-op on a clean tail.
  Status TruncateUnreliableTail();

  /// Forces any pending group-commit fsync to disk now.
  Status Flush();

  /// Point-in-time counters.
  JobJournalStats stats() const;

  /// The structurally valid frames, offset-ascending.
  std::vector<JournalRecordInfo> ListRecords() const;

  const std::string& path() const { return path_; }

  /// \brief Offline integrity check of the file at `path` — superblock and
  /// every payload checksum, without opening a journal handle. Fails only
  /// on I/O errors; corruption is reported, not failed.
  static Result<JournalFsckReport> Fsck(const std::string& path);

  /// \brief The exact request byte image an Admitted record stores —
  /// exposed for tests and the crash/bench harnesses. DecodeRequest rejects
  /// trailing bytes, out-of-range enums and truncation; doubles round-trip
  /// bit-exactly. `ga_solver.cancel` decodes as null by construction.
  static std::string EncodeRequest(const MiningRequest& request);
  static Result<MiningRequest> DecodeRequest(std::span<const uint8_t> bytes);

  /// \brief The response *content* image a Done record stores: both subgraph
  /// rankings with exact double bits. Telemetry is deliberately excluded —
  /// it is process state, not mined content — so a recovered response
  /// carries zeroed telemetry. ResponseFingerprint is the PageChecksum of
  /// this image (the bit-identity oracle of the crash harness).
  static std::string EncodeResponseContent(const MiningResponse& response);
  static Result<MiningResponse> DecodeResponseContent(
      std::span<const uint8_t> bytes);
  static uint64_t ResponseFingerprint(const MiningResponse& response);

 private:
  JobJournal(std::string path, JobJournalOptions options, RecordLog log);

  // Appends one record and applies the durability policy. Mutex held.
  Status AppendLocked(uint32_t type, uint64_t job_id,
                      const std::string& payload);
  // fsync with the journal.fsync fault site; clears dirty_. Mutex held.
  Status SyncLocked();
  // Background group-commit flusher.
  void FlusherLoop();

  const std::string path_;
  const JobJournalOptions options_;

  mutable std::mutex mutex_;
  RecordLog log_;
  // Structurally valid frames in file order (the journal is a log, not a
  // directory — every frame stays reachable for Replay/ListRecords).
  std::vector<RecordFrame> frames_;
  bool dirty_ = false;  // written but not yet fsynced (group commit)
  // Stats (mutex-guarded) the log does not keep: frames_ by record type,
  // and durability fsyncs.
  uint64_t records_by_type_[kDoneRecord + 1] = {};
  uint64_t fsyncs_ = 0;

  // Group-commit flusher.
  std::condition_variable flusher_cv_;
  bool shutdown_ = false;
  std::thread flusher_;
};

}  // namespace dcs

#endif  // DCS_STORE_JOB_JOURNAL_H_
