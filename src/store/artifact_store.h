// ArtifactStore — the disk-backed persistence layer of libdcs: a single-file,
// page-checksummed store of prepared pipelines that survives restarts.
//
// Every in-memory scale layer (the shared PipelineCache, the O(Δ)-patched
// artifacts) dies with the process; a service restarting under traffic pays
// a full cold rebuild storm for every graph pair. The store closes that gap.
// It is a record schema over store/record_log.h, which owns the file format
// (superblock, checksummed frames), the trust model, the flock discipline
// and the offline Fsck. One record type is written: PreparedPipeline
// contents (difference graph, GD+, smart-init bounds with the cached seed
// order, graphs encoded by graph/serialize.h) keyed by the hash of their
// full PipelineCacheKey. Sessions write back what they cold-build or
// upgrade. Pipelines patched by a streaming update stay in the cache only:
// updates are not journaled and no API exports the patched graphs, so no
// restart can name them. Record type 1 (input graphs, which nothing read)
// is retired: Open skips such frames in older files, and the format version
// is unchanged.
//
// On top of the log the store keeps a directory of the newest record per
// key (a rewrite appends a fresh frame). Content is verified on every load:
// the frame checksum is re-checked, the bytes are parsed defensively (every
// Graph invariant is re-established), and the record must embed its exact
// key. Any mismatch reads as "absent", counted in `corrupt_pages`, and
// de-indexes the record and everything appended after it so the next
// write-back truncates the rot away: the caller silently rebuilds, the store
// converges back to clean, and a stale or corrupt file can never poison a
// session. (Rot inside a superseded record that no load ever touches is
// surfaced by Fsck, not by sessions.)
//
// Concurrency: all methods are thread-safe (one internal mutex over the
// directory and the log); across processes the log's flock discipline lets
// N processes serve one store file. Asynchronous write-back
// (PutPipelineAsync) runs on an owned background thread so a mining hot path
// never blocks on disk; Flush() drains it, and the destructor drains before
// closing.
//
// Determinism: payloads carry exact IEEE-754 bit patterns, so an artifact
// loaded from the store is bit-identical to the one written — a
// store-warmed solve equals a cold-built one bit for bit (pinned by
// tests/store/artifact_store_test.cc, corrupt-store rebuilds included).

#ifndef DCS_STORE_ARTIFACT_STORE_H_
#define DCS_STORE_ARTIFACT_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/pipeline_cache.h"
#include "store/record_log.h"
#include "util/status.h"

namespace dcs {

/// Store-level tuning. Appends are never fsynced: the store is a cache of
/// rebuildable artifacts, so losing a tail on power failure only costs a
/// rebuild. Transient I/O errors are retried within RecordLog::kMaxIoRetries.
struct ArtifactStoreOptions {
  /// Create the file (with a fresh superblock) when absent. When false,
  /// opening a missing file fails with NotFound.
  bool create_if_missing = true;
};

/// Store-lifetime counters (since Open).
struct ArtifactStoreStats {
  /// Valid pipeline records currently indexed (one per key).
  uint64_t pipeline_records = 0;
  /// Pages rejected — bad magic, truncated frame, checksum or content-key
  /// mismatch — at scan time or on a load.
  uint64_t corrupt_pages = 0;
  /// Records appended through this handle (sync and async).
  uint64_t appended_records = 0;
  /// Load attempts (LoadPipeline and warm boots), and the attempts
  /// that found no valid record; loads - load_misses were served.
  uint64_t loads = 0;
  uint64_t load_misses = 0;
  /// Async write-backs that failed after exhausting the retry budget. Never
  /// silent: the most recent failure is retained (last_write_error()),
  /// returned by Flush(), and feeds the session degradation ladder.
  uint64_t write_errors = 0;
  /// Transient I/O attempts that were retried (reads and writes, including
  /// retries that ultimately failed).
  uint64_t io_retries = 0;
  /// Bytes discarded as unreliable by this handle's appends: a torn or
  /// rotted tail cut back to the last valid record, or — when the
  /// superblock itself was bad — the whole old file. The journal counts
  /// the same way (one truncation rule, store/record_log.h).
  uint64_t truncated_tail_bytes = 0;
  /// Current file size in bytes.
  uint64_t file_bytes = 0;
};

/// One indexed pipeline record page, for `dcs_store ls` and tests.
struct ArtifactRecordInfo {
  uint64_t key = 0;  ///< PipelineCacheKey::Hash of the stored pipeline
  uint64_t offset = 0;
  uint64_t payload_bytes = 0;
};

/// Offline integrity report, for `dcs_store fsck`.
using ArtifactFsckReport = RecordLogFsckReport;

/// \brief Single-file, checksummed, key-hashed store of prepared pipelines.
/// See the file comment for the trust, concurrency and determinism contract.
class ArtifactStore {
 public:
  /// Current on-disk format version; a file with a newer version is treated
  /// as unreadable (rebuild-and-overwrite), never half-parsed.
  static constexpr uint32_t kFormatVersion = 1;

  /// \brief Opens (or creates) the store at `path`, validates the
  /// superblock, and indexes every valid pipeline record (frames of the
  /// retired graph type are skipped, neither indexed nor counted corrupt).
  ///
  /// A bad superblock — wrong magic, foreign endianness, future version, or
  /// a checksum mismatch — marks the whole file untrusted: the store opens
  /// empty and the first append rewrites the file from scratch. I/O errors
  /// (unreachable path, permissions) fail the open.
  static Result<std::shared_ptr<ArtifactStore>> Open(
      std::string path, ArtifactStoreOptions options = {});

  /// Drains the async write-back queue, then closes the file.
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// \brief Appends `pipeline` under `key` (synchronous).
  Status PutPipeline(const PipelineCacheKey& key,
                     const PreparedPipeline& pipeline);

  /// \brief Enqueues `pipeline` for the background writer and returns
  /// immediately — the mining hot path never blocks on disk.
  /// Write failures are absorbed into stats().write_errors.
  void PutPipelineAsync(const PipelineCacheKey& key,
                        std::shared_ptr<const PreparedPipeline> pipeline);

  /// \brief Loads the pipeline stored under `key`; NotFound when absent,
  /// corrupt, or when the stored record's exact key differs (hash
  /// collision).
  Result<PreparedPipeline> LoadPipeline(const PipelineCacheKey& key);

  /// \brief Hydrates every valid stored pipeline of `graph_fingerprint`
  /// into `cache` (PipelineCache::Publish) — the warm-boot path a session
  /// runs when it attaches the store. Corrupt records are skipped (and
  /// counted); returns the number hydrated.
  size_t WarmBootFingerprint(uint64_t graph_fingerprint, PipelineCache* cache);

  /// WarmBootFingerprint over every stored pipeline regardless of
  /// fingerprint (tools and multi-tenant boots). Returns the number hydrated.
  size_t WarmBootAll(PipelineCache* cache);

  /// \brief Blocks until the async write-back queue is empty and idle, then
  /// returns the most recent async write failure (OK when every write-back
  /// since Open landed) — the synchronous observation point for errors the
  /// async path would otherwise only count.
  Status Flush();

  /// The most recent async write-back failure; OK when none occurred.
  /// Non-blocking (does not drain the queue — Flush() does).
  Status last_write_error() const;

  /// Point-in-time counters.
  ArtifactStoreStats stats() const;

  /// The indexed records, offset-ascending (newest record wins per key, so
  /// a key superseded by a later append lists only once).
  std::vector<ArtifactRecordInfo> ListRecords() const;

  const std::string& path() const { return path_; }

  /// \brief Offline integrity check of the file at `path` — validates the
  /// superblock and every page checksum without opening a store handle.
  /// Fails only on I/O errors; corruption is reported, not failed.
  static Result<ArtifactFsckReport> Fsck(const std::string& path);

 private:
  struct PendingWrite {
    PipelineCacheKey key;
    std::shared_ptr<const PreparedPipeline> pipeline;
  };
  ArtifactStore(std::string path, RecordLog log);

  // Appends one pipeline record and indexes it. Mutex held.
  Status AppendLocked(uint64_t key, const std::string& payload);
  // Counts a load of `key` and reads its verified payload under a shared
  // file lock; counts a miss when the key is absent or its frame fails
  // verification, which also de-indexes the record and everything after it
  // so the next append truncates the rot. Mutex held.
  Result<std::vector<uint8_t>> LoadPayloadLocked(uint64_t key);
  // A verified frame whose content failed to parse or re-key: counts a
  // corrupt page and a miss, and de-indexes the key. Mutex held.
  void RejectContentLocked(uint64_t key);
  // Background thread: drains pending_writes_ through AppendLocked.
  void WriterLoop();

  const std::string path_;

  mutable std::mutex mutex_;
  RecordLog log_;
  // Newest valid pipeline frame per key hash.
  std::unordered_map<uint64_t, RecordFrame> pipelines_;
  // Stats (mutex-guarded) the log does not keep.
  uint64_t loads_ = 0;
  uint64_t load_misses_ = 0;
  uint64_t write_errors_ = 0;
  // Most recent async write-back failure (mutex_-guarded, like the stats).
  Status last_write_error_;

  // Async writer.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable queue_idle_cv_;
  std::deque<PendingWrite> pending_writes_;
  bool writer_busy_ = false;
  bool shutdown_ = false;
  std::thread writer_;
};

}  // namespace dcs

#endif  // DCS_STORE_ARTIFACT_STORE_H_
