// RecordLog — the single-file, checksummed, append-mostly record log under
// both durable files of libdcs: the artifact store (store/artifact_store.h)
// and the job journal (store/job_journal.h). Each owner supplies a magic,
// a format version and its record types, and keeps its own index or replay
// logic on top; everything the page format decides lives here, once.
//
// Format. A fixed 32-byte superblock — magic u64 | version u32 | endianness
// tag u32 (0x01020304) | PageChecksum (util/checksum.h) of the preceding
// 16 bytes u64 | reserved u64 (0) — then frames back to back, each a
// 32-byte header — "PAGE" magic u32 | type u32 | key u64 | payload_bytes
// u64 | PageChecksum of the payload u64 — followed by the payload. Integers
// are little-endian (util/byte_codec.h).
//
// Trust model: the file is never trusted. Scan validates the superblock and
// walks the header chain structurally (O(records) I/O, payloads untouched)
// and stops at the first broken frame; the bytes from there on are the
// unreliable tail, which the next Append truncates away. A bad superblock —
// wrong magic, foreign endianness, a checksum mismatch or another format
// version — makes the whole file unreliable: it scans empty and the next
// Append rewrites it from a fresh superblock, unless another handle already
// has (then that superblock and its records are kept). Either way the
// discarded bytes are counted in truncated_tail_bytes. Payload checksums
// are verified where bytes are used (ReadFrame) and by the offline Fsck.
// The superblock's reserved word and a frame's key are covered by no
// checksum; owners check keys against the payload they parse.
//
// Lock discipline: every file operation holds a BSD advisory flock — shared
// for Scan, Fsck and reads, exclusive for Append and tail truncation — so
// handles in any number of processes never interleave appends and a reader
// never sees a half-written frame. Append writes at the true end of file,
// never over another process's records. The store.flock fault site (and any
// real flock error) degrades the lock to lockless I/O, which stays correct
// within one process because owners serialize calls under their mutex.
//
// I/O: pread/pwrite retry on EINTR. Append and ReadFrame consult the
// caller's fault site before each attempt and retry I/O errors with a
// deterministic exponential backoff (no jitter, so recovery timing is
// reproducible); fixed-offset writes make a retry over a partial write
// idempotent.
//
// Thread safety: none. A RecordLog is owned by one ArtifactStore or
// JobJournal and only touched under that owner's mutex.

#ifndef DCS_STORE_RECORD_LOG_H_
#define DCS_STORE_RECORD_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dcs {

/// What distinguishes one kind of record-log file from another.
struct RecordLogFormat {
  const char* name;          ///< "artifact store", "job journal" (messages)
  uint64_t magic;            ///< superblock magic
  uint32_t version;          ///< the one readable format version
  uint32_t max_record_type;  ///< valid frame types are 1..max_record_type
};

/// One structurally valid frame.
struct RecordFrame {
  uint64_t offset = 0;  ///< of the frame header
  uint64_t payload_bytes = 0;
  uint32_t type = 0;
  uint64_t key = 0;
};

/// Offline integrity report, for `dcs_store fsck` and `dcs_store journal
/// fsck`. Clean means superblock_ok and corrupt_pages == 0; a nonzero
/// unreliable tail always comes with one of those failing.
struct RecordLogFsckReport {
  bool superblock_ok = false;
  uint32_t format_version = 0;
  uint64_t valid_records = 0;
  uint64_t corrupt_pages = 0;
  /// Bytes past the last valid record (the tail a writer would truncate).
  uint64_t unreliable_tail_bytes = 0;
  uint64_t file_bytes = 0;
};

/// Counters since the log was opened.
struct RecordLogCounters {
  /// Frames rejected by Scan or ReadFrame, plus owner-counted content
  /// failures (CountCorruptPage).
  uint64_t corrupt_pages = 0;
  uint64_t appended_records = 0;
  /// I/O attempts that were retried (including ones that finally failed).
  uint64_t io_retries = 0;
  /// Unreliable-tail truncations, and the bytes they discarded.
  uint64_t truncations = 0;
  uint64_t truncated_tail_bytes = 0;
};

/// flock(2) held for one operation's scope; see the lock discipline above.
class ScopedFileLock {
 public:
  ScopedFileLock(int fd, int op);
  ~ScopedFileLock();
  ScopedFileLock(const ScopedFileLock&) = delete;
  ScopedFileLock& operator=(const ScopedFileLock&) = delete;

 private:
  int fd_;
};

/// \brief The record log of one open file. See the file comment.
class RecordLog {
 public:
  /// Retry budget and backoff base of Append and the owners' ReadFrame
  /// calls: attempt k sleeps kRetryBackoffMs * 2^k milliseconds.
  static constexpr uint32_t kMaxIoRetries = 3;
  static constexpr double kRetryBackoffMs = 0.5;

  /// Opens `path` read-write, creating it when asked; NotFound when it is
  /// absent otherwise. A 0-byte file gets its superblock (under the
  /// exclusive lock), so even a log closed before its first append is a
  /// valid empty log. Reads nothing — call Scan next.
  static Result<RecordLog> Open(const std::string& path,
                                const RecordLogFormat& format,
                                bool create_if_missing);

  /// \brief Offline check of the file at `path`: the superblock and every
  /// payload checksum, under a shared lock, without a log handle. Fails
  /// only on I/O errors; corruption is reported.
  static Result<RecordLogFsckReport> Fsck(const std::string& path,
                                          const RecordLogFormat& format);

  RecordLog(RecordLog&& other) noexcept;
  RecordLog& operator=(RecordLog&&) = delete;
  ~RecordLog();

  /// \brief Structural scan under a shared lock: the frames of the reliable
  /// prefix, in file order. Sets where the reliable prefix ends; a broken
  /// frame or bad superblock counts one corrupt page.
  std::vector<RecordFrame> Scan();

  /// \brief Appends one frame under the exclusive lock: truncates an
  /// unreliable tail first, writes at the true end of file, and retries
  /// I/O errors (and hits of `fault_site`) within kMaxIoRetries.
  Result<RecordFrame> Append(uint32_t type, uint64_t key,
                             const std::string& payload,
                             const char* fault_site);

  /// \brief Reads `frame` and verifies its header against it and its
  /// payload checksum; returns the payload. The caller holds SharedLock().
  /// Each attempt consults `fault_site` first; I/O errors are retried up to
  /// `max_retries` times. Any failure counts a corrupt page and returns
  /// NotFound.
  Result<std::vector<uint8_t>> ReadFrame(const RecordFrame& frame,
                                         const char* fault_site,
                                         uint32_t max_retries);

  /// The shared lock a sequence of ReadFrame calls runs under.
  ScopedFileLock SharedLock() const;

  /// Marks everything from `offset` on unreliable (a frame there failed
  /// verification), so the next append truncates it away.
  void MarkUnreliableFrom(uint64_t offset);

  /// Truncates an unreliable tail now, under the exclusive lock; no-op
  /// (and no lock) when the tail is clean.
  Status TruncateUnreliableTail();

  /// fsync(2).
  Status Sync();

  /// Current file size; 0 when fstat fails.
  uint64_t FileBytes() const;

  void CountCorruptPage() { ++counters_.corrupt_pages; }
  const RecordLogCounters& counters() const { return counters_; }

 private:
  RecordLog(const RecordLogFormat& format, int fd);
  // Truncates back to the reliable end, or rewrites a superblock-only file
  // when not even the superblock is reliable (and no other handle has
  // rewritten it since the scan). Exclusive lock held.
  Status TruncateTailLocked();

  RecordLogFormat format_;
  int fd_ = -1;
  // First byte past the last frame known valid; below the superblock size
  // when the superblock itself is not trusted.
  uint64_t reliable_end_ = 0;
  bool tail_unreliable_ = true;
  RecordLogCounters counters_;
};

}  // namespace dcs

#endif  // DCS_STORE_RECORD_LOG_H_
