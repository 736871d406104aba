#include "store/artifact_store.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "graph/serialize.h"
#include "util/byte_codec.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace dcs {

namespace {

// The one record type. Type 1 (input graphs) is retired: the type range
// stays 1..2, so older files still open and Open skips their type-1 frames.
constexpr uint32_t kPipelineRecord = 2;

// "DCSSTOR1" as a little-endian u64.
constexpr RecordLogFormat kStoreFormat = {
    "artifact store", 0x31524F5453534344ull, ArtifactStore::kFormatVersion,
    kPipelineRecord};

// ---- pipeline payloads -----------------------------------------------------

std::string SerializePipeline(const PipelineCacheKey& key,
                              const PreparedPipeline& pipeline) {
  std::string out;
  AppendU64(key.graph_fingerprint, &out);
  AppendDoubleBits(key.alpha, &out);
  const uint8_t flags[8] = {
      static_cast<uint8_t>(key.flip ? 1 : 0),
      static_cast<uint8_t>(key.discretize ? 1 : 0),
      static_cast<uint8_t>(key.clamp_weights_above ? 1 : 0),
      static_cast<uint8_t>(pipeline.has_ga_artifacts ? 1 : 0),
      static_cast<uint8_t>(pipeline.validated_nonnegative ? 1 : 0),
      0, 0, 0};
  out.append(reinterpret_cast<const char*>(flags), sizeof(flags));
  if (key.discretize) {
    AppendDoubleBits(key.discretize->strong_pos, &out);
    AppendDoubleBits(key.discretize->weak_pos, &out);
    AppendDoubleBits(key.discretize->strong_neg, &out);
    AppendDoubleBits(key.discretize->level_two, &out);
    AppendDoubleBits(key.discretize->level_one, &out);
  }
  if (key.clamp_weights_above) {
    AppendDoubleBits(*key.clamp_weights_above, &out);
  }
  AppendGraphBytes(pipeline.difference, &out);
  if (pipeline.has_ga_artifacts) {
    AppendGraphBytes(pipeline.positive_part, &out);
    const SmartInitBounds& b = pipeline.smart_bounds;
    AppendU32(static_cast<uint32_t>(b.w.size()), &out);
    for (const double v : b.w) AppendDoubleBits(v, &out);
    for (const uint32_t v : b.tau) AppendU32(v, &out);
    for (const double v : b.mu) AppendDoubleBits(v, &out);
    for (const double v : b.max_incident) AppendDoubleBits(v, &out);
    for (const VertexId v : b.order) AppendU32(v, &out);
  }
  return out;
}

Status PipelineTruncated() {
  return Status::InvalidArgument("pipeline payload truncated");
}

Result<std::pair<PipelineCacheKey, PreparedPipeline>> ParsePipeline(
    std::span<const uint8_t> bytes) {
  size_t cursor = 0;
  PipelineCacheKey key;
  if (!ReadU64(bytes, &cursor, &key.graph_fingerprint) ||
      !ReadDoubleBits(bytes, &cursor, &key.alpha)) {
    return PipelineTruncated();
  }
  if (bytes.size() - cursor < 8) return PipelineTruncated();
  const uint8_t* flags = bytes.data() + cursor;
  cursor += 8;
  for (size_t i = 0; i < 8; ++i) {
    if (flags[i] > 1 || (i >= 5 && flags[i] != 0)) {
      return Status::InvalidArgument("pipeline payload flags invalid");
    }
  }
  key.flip = flags[0] != 0;
  PreparedPipeline pipeline;
  if (flags[1] != 0) {
    DiscretizeSpec spec;
    if (!ReadDoubleBits(bytes, &cursor, &spec.strong_pos) ||
        !ReadDoubleBits(bytes, &cursor, &spec.weak_pos) ||
        !ReadDoubleBits(bytes, &cursor, &spec.strong_neg) ||
        !ReadDoubleBits(bytes, &cursor, &spec.level_two) ||
        !ReadDoubleBits(bytes, &cursor, &spec.level_one)) {
      return PipelineTruncated();
    }
    key.discretize = spec;
  }
  if (flags[2] != 0) {
    double clamp = 0.0;
    if (!ReadDoubleBits(bytes, &cursor, &clamp)) return PipelineTruncated();
    key.clamp_weights_above = clamp;
  }
  DCS_ASSIGN_OR_RETURN(pipeline.difference, ParseGraphBytes(bytes, &cursor));
  if (flags[3] != 0) {
    pipeline.has_ga_artifacts = true;
    DCS_ASSIGN_OR_RETURN(pipeline.positive_part,
                         ParseGraphBytes(bytes, &cursor));
    if (pipeline.positive_part.NumVertices() !=
        pipeline.difference.NumVertices()) {
      return Status::InvalidArgument("pipeline payload GD+ size mismatch");
    }
    uint32_t n = 0;
    if (!ReadU32(bytes, &cursor, &n)) return PipelineTruncated();
    if (n != pipeline.difference.NumVertices()) {
      return Status::InvalidArgument("pipeline payload bounds size mismatch");
    }
    SmartInitBounds& b = pipeline.smart_bounds;
    b.w.resize(n);
    b.tau.resize(n);
    b.mu.resize(n);
    b.max_incident.resize(n);
    b.order.resize(n);
    for (double& v : b.w) {
      if (!ReadDoubleBits(bytes, &cursor, &v)) return PipelineTruncated();
    }
    for (uint32_t& v : b.tau) {
      if (!ReadU32(bytes, &cursor, &v)) return PipelineTruncated();
    }
    for (double& v : b.mu) {
      if (!ReadDoubleBits(bytes, &cursor, &v)) return PipelineTruncated();
    }
    for (double& v : b.max_incident) {
      if (!ReadDoubleBits(bytes, &cursor, &v)) return PipelineTruncated();
    }
    std::vector<bool> seen(n, false);
    for (VertexId& v : b.order) {
      if (!ReadU32(bytes, &cursor, &v)) return PipelineTruncated();
      if (v >= n || seen[v]) {
        return Status::InvalidArgument(
            "pipeline payload seed order is not a permutation");
      }
      seen[v] = true;
    }
  }
  pipeline.validated_nonnegative = flags[4] != 0;
  if (cursor != bytes.size()) {
    return Status::InvalidArgument("pipeline payload has trailing bytes");
  }
  return std::make_pair(std::move(key), std::move(pipeline));
}

}  // namespace

// ---- open / read / append --------------------------------------------------

ArtifactStore::ArtifactStore(std::string path, RecordLog log)
    : path_(std::move(path)), log_(std::move(log)) {
  writer_ = std::thread(&ArtifactStore::WriterLoop, this);
}

Result<std::shared_ptr<ArtifactStore>> ArtifactStore::Open(
    std::string path, ArtifactStoreOptions options) {
  DCS_ASSIGN_OR_RETURN(
      RecordLog log,
      RecordLog::Open(path, kStoreFormat, options.create_if_missing));
  auto store = std::shared_ptr<ArtifactStore>(
      new ArtifactStore(std::move(path), std::move(log)));
  std::lock_guard<std::mutex> lock(store->mutex_);
  // Newest record per key wins (append-mostly overwrite).
  for (const RecordFrame& frame : store->log_.Scan()) {
    if (frame.type == kPipelineRecord) store->pipelines_[frame.key] = frame;
  }
  return store;
}

ArtifactStore::~ArtifactStore() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

Status ArtifactStore::AppendLocked(uint64_t key, const std::string& payload) {
  DCS_ASSIGN_OR_RETURN(RecordFrame frame,
                       log_.Append(kPipelineRecord, key, payload,
                                   fault_sites::kStoreAppend));
  pipelines_[key] = frame;
  return Status::OK();
}

Result<std::vector<uint8_t>> ArtifactStore::LoadPayloadLocked(uint64_t key) {
  ++loads_;
  const auto it = pipelines_.find(key);
  if (it == pipelines_.end()) {
    ++load_misses_;
    return Status::NotFound("no record for key");
  }
  ScopedFileLock file_lock = log_.SharedLock();
  Result<std::vector<uint8_t>> payload = log_.ReadFrame(
      it->second, fault_sites::kStoreRead, RecordLog::kMaxIoRetries);
  if (!payload.ok()) {
    // The frame rotted (the open-time scan is structural only; content is
    // verified here, on first use). Drop it and every record behind it from
    // the directory and let the next write-back truncate the rot away, so
    // the file converges back to fsck-clean. Copy the pivot offset out
    // first: the erase loop may free the entry `it` points at.
    ++load_misses_;
    const uint64_t bad_offset = it->second.offset;
    for (auto e = pipelines_.begin(); e != pipelines_.end();) {
      e = e->second.offset >= bad_offset ? pipelines_.erase(e) : std::next(e);
    }
    log_.MarkUnreliableFrom(bad_offset);
  }
  return payload;
}

void ArtifactStore::RejectContentLocked(uint64_t key) {
  log_.CountCorruptPage();
  ++load_misses_;
  pipelines_.erase(key);
}

// ---- pipeline records ------------------------------------------------------

Status ArtifactStore::PutPipeline(const PipelineCacheKey& key,
                                  const PreparedPipeline& pipeline) {
  const std::string payload = SerializePipeline(key, pipeline);
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendLocked(key.Hash(), payload);
}

void ArtifactStore::PutPipelineAsync(
    const PipelineCacheKey& key,
    std::shared_ptr<const PreparedPipeline> pipeline) {
  if (pipeline == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shutdown_) return;
    pending_writes_.push_back(PendingWrite{key, std::move(pipeline)});
  }
  queue_cv_.notify_one();
}

Result<PreparedPipeline> ArtifactStore::LoadPipeline(
    const PipelineCacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t hash = key.Hash();
  DCS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                       LoadPayloadLocked(hash));
  Result<std::pair<PipelineCacheKey, PreparedPipeline>> parsed =
      ParsePipeline(payload);
  if (!parsed.ok()) {
    RejectContentLocked(hash);
    return Status::NotFound("pipeline record failed content verification");
  }
  if (!(parsed->first == key)) {
    // A 2^-64 hash collision with a different key: the record is healthy,
    // just not ours.
    ++load_misses_;
    return Status::NotFound("pipeline record key mismatch");
  }
  return std::move(parsed->second);
}

size_t ArtifactStore::WarmBootFingerprint(uint64_t graph_fingerprint,
                                          PipelineCache* cache) {
  DCS_CHECK(cache != nullptr);
  // Snapshot the candidate hashes, then load each through the verifying
  // path without holding our mutex across Publish.
  std::vector<uint64_t> hashes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hashes.reserve(pipelines_.size());
    for (const auto& [hash, entry] : pipelines_) hashes.push_back(hash);
  }
  std::sort(hashes.begin(), hashes.end());

  size_t hydrated = 0;
  for (const uint64_t hash : hashes) {
    const Result<std::vector<uint8_t>> payload = [&] {
      std::lock_guard<std::mutex> lock(mutex_);
      return LoadPayloadLocked(hash);
    }();
    if (!payload.ok()) continue;
    Result<std::pair<PipelineCacheKey, PreparedPipeline>> parsed =
        ParsePipeline(*payload);
    // The record's embedded key must hash to its directory slot.
    if (!parsed.ok() || parsed->first.Hash() != hash) {
      std::lock_guard<std::mutex> lock(mutex_);
      RejectContentLocked(hash);
      continue;
    }
    if (graph_fingerprint != 0 &&
        parsed->first.graph_fingerprint != graph_fingerprint) {
      continue;  // healthy record of another graph pair
    }
    cache->Publish(parsed->first, std::make_shared<const PreparedPipeline>(
                                      std::move(parsed->second)));
    ++hydrated;
  }
  return hydrated;
}

size_t ArtifactStore::WarmBootAll(PipelineCache* cache) {
  return WarmBootFingerprint(0, cache);
}

// ---- async writer ----------------------------------------------------------

void ArtifactStore::WriterLoop() {
  while (true) {
    PendingWrite write;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return shutdown_ || !pending_writes_.empty(); });
      if (pending_writes_.empty()) return;  // shutdown with a drained queue
      write = std::move(pending_writes_.front());
      pending_writes_.pop_front();
      writer_busy_ = true;
    }
    const Status status = PutPipeline(write.key, *write.pipeline);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      writer_busy_ = false;
      if (!status.ok()) {
        // A failed write-back (post-retry) is recorded, never dropped: the
        // counter and retained Status are what Flush() and the session
        // degradation ladder observe.
        std::lock_guard<std::mutex> stats_lock(mutex_);
        ++write_errors_;
        last_write_error_ = status;
      }
      if (pending_writes_.empty()) queue_idle_cv_.notify_all();
    }
  }
}

Status ArtifactStore::Flush() {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_idle_cv_.wait(
        lock, [this] { return pending_writes_.empty() && !writer_busy_; });
  }
  return last_write_error();
}

Status ArtifactStore::last_write_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_write_error_;
}

// ---- introspection ---------------------------------------------------------

ArtifactStoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ArtifactStoreStats stats;
  stats.pipeline_records = pipelines_.size();
  const RecordLogCounters& log = log_.counters();
  stats.corrupt_pages = log.corrupt_pages;
  stats.appended_records = log.appended_records;
  stats.loads = loads_;
  stats.load_misses = load_misses_;
  stats.write_errors = write_errors_;
  stats.io_retries = log.io_retries;
  stats.truncated_tail_bytes = log.truncated_tail_bytes;
  stats.file_bytes = log_.FileBytes();
  return stats;
}

std::vector<ArtifactRecordInfo> ArtifactStore::ListRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ArtifactRecordInfo> out;
  out.reserve(pipelines_.size());
  for (const auto& [key, entry] : pipelines_) {
    ArtifactRecordInfo info;
    info.key = key;
    info.offset = entry.offset;
    info.payload_bytes = entry.payload_bytes;
    out.push_back(info);
  }
  std::sort(out.begin(), out.end(),
            [](const ArtifactRecordInfo& a, const ArtifactRecordInfo& b) {
              return a.offset < b.offset;
            });
  return out;
}

Result<ArtifactFsckReport> ArtifactStore::Fsck(const std::string& path) {
  return RecordLog::Fsck(path, kStoreFormat);
}

}  // namespace dcs
