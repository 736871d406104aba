#include "api/pipeline_cache.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "util/fault_injection.h"
#include "util/hash.h"

namespace dcs {

namespace {

// Bit-pattern double equality, the comparison PipelineCacheKey uses so that
// equality and Hash agree on every input: NaN fields compare equal to
// themselves (no unmatchable keys duplicating entries), and -0.0 != 0.0
// (they hash apart). Value semantics would break the unordered_map
// invariant that equal keys hash equally.
bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool BitEqual(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || BitEqual(*a, *b);
}

// Approximate heap footprint of one memoized response, the unit the memo
// charges against the cache byte budget.
size_t ApproxBytes(const MiningResponse& response) {
  size_t bytes = sizeof(MiningResponse);
  for (const auto* ranking :
       {&response.average_degree, &response.graph_affinity}) {
    for (const RankedSubgraph& ranked : *ranking) {
      bytes += sizeof(RankedSubgraph) +
               ranked.vertices.capacity() * sizeof(VertexId) +
               ranked.weights.capacity() * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace

uint64_t PipelineCacheKey::Hash() const {
  uint64_t h = MixFingerprint(0x6463735f706970ull,  // "dcs_pip"
                              graph_fingerprint);
  h = MixFingerprintDouble(h, alpha);
  h = MixFingerprint(h, flip ? 1 : 0);
  if (discretize) {
    h = MixFingerprintDouble(h, discretize->strong_pos);
    h = MixFingerprintDouble(h, discretize->weak_pos);
    h = MixFingerprintDouble(h, discretize->strong_neg);
    h = MixFingerprintDouble(h, discretize->level_two);
    h = MixFingerprintDouble(h, discretize->level_one);
  } else {
    h = MixFingerprint(h, 2);
  }
  h = clamp_weights_above ? MixFingerprintDouble(h, *clamp_weights_above)
                          : MixFingerprint(h, 3);
  return h;
}

bool operator==(const PipelineCacheKey& a, const PipelineCacheKey& b) {
  if (a.graph_fingerprint != b.graph_fingerprint || a.flip != b.flip ||
      !BitEqual(a.alpha, b.alpha) ||
      !BitEqual(a.clamp_weights_above, b.clamp_weights_above) ||
      a.discretize.has_value() != b.discretize.has_value()) {
    return false;
  }
  if (!a.discretize.has_value()) return true;
  const DiscretizeSpec& da = *a.discretize;
  const DiscretizeSpec& db = *b.discretize;
  return BitEqual(da.strong_pos, db.strong_pos) &&
         BitEqual(da.weak_pos, db.weak_pos) &&
         BitEqual(da.strong_neg, db.strong_neg) &&
         BitEqual(da.level_two, db.level_two) &&
         BitEqual(da.level_one, db.level_one);
}

uint64_t PipelineGraphFingerprintFromParts(uint64_t g1_fingerprint,
                                           uint64_t g2_fingerprint) {
  // Two chained steps, not one: MixFingerprint(h, v) adds h and v before
  // mixing, so a single step would make the pair fingerprint symmetric and
  // collide (G1, G2) with (G2, G1) — the flip direction must distinguish.
  const uint64_t h = MixFingerprint(0x6463735f70616972ull,  // "dcs_pair"
                                    g1_fingerprint);
  return MixFingerprint(h, g2_fingerprint);
}

uint64_t PipelineGraphFingerprint(const Graph& g1, const Graph& g2) {
  return PipelineGraphFingerprintFromParts(g1.ContentFingerprint(),
                                           g2.ContentFingerprint());
}

size_t PreparedPipeline::ApproxBytes() const {
  return sizeof(PreparedPipeline) + difference.ApproxBytes() +
         positive_part.ApproxBytes() +
         smart_bounds.w.capacity() * sizeof(double) +
         smart_bounds.tau.capacity() * sizeof(uint32_t) +
         smart_bounds.mu.capacity() * sizeof(double) +
         smart_bounds.max_incident.capacity() * sizeof(double) +
         smart_bounds.order.capacity() * sizeof(VertexId);
}

PipelineCache::PipelineCache(PipelineCacheOptions options)
    : options_(options) {}

Result<PipelineCache::Snapshot> PipelineCache::GetOrPrepare(
    const PipelineCacheKey& key, bool need_ga, const BuildFn& build,
    bool* reused_difference) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end() &&
        (!need_ga || it->second.prepared->has_ga_artifacts)) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++hits_;
      *reused_difference = true;
      return it->second.prepared;
    }
    if (building_.count(key) != 0) {
      // Another session is preparing this key (or upgrading it); block until
      // it publishes, then re-check — the common path turns into a hit.
      build_done_.wait(lock);
      continue;
    }

    // Become the key's single builder. The snapshot (not the entry) is
    // pinned across the unlocked build, so concurrent eviction of the
    // upgrade source is harmless.
    Snapshot reuse = it != entries_.end() ? it->second.prepared : nullptr;
    building_.insert(key);
    lock.unlock();
    // Demote build exceptions to the Status contract: an escaping exception
    // would skip the building_.erase below and deadlock every later caller
    // of this key (libdcs is exception-free, but bad_alloc and user build
    // fns are not).
    Result<PreparedPipeline> built = [&]() -> Result<PreparedPipeline> {
      try {
        // The cache.build fault site: an armed fault fails this build the
        // same way a failing BuildFn would — the status propagates to the
        // caller and racing waiters retry. Zero-overhead disarmed.
        if (FaultHit(fault_sites::kCacheBuild)) {
          return FaultInjection::InjectedError(fault_sites::kCacheBuild);
        }
        return build(reuse.get());
      } catch (const std::exception& e) {
        return Status::Internal(std::string("pipeline build threw: ") +
                                e.what());
      } catch (...) {
        return Status::Internal("pipeline build threw a non-std exception");
      }
    }();
    lock.lock();
    building_.erase(key);
    // Wake racing waiters; on failure they retry the build themselves (each
    // caller owns its session's graphs, so a retry is self-contained).
    build_done_.notify_all();
    if (!built.ok()) return built.status();
    if (reuse != nullptr) {
      ++upgrades_;
      *reused_difference = true;
    } else {
      ++misses_;
      *reused_difference = false;
    }
    auto snapshot = std::make_shared<const PreparedPipeline>(
        std::move(built).value());
    InsertLocked(key, snapshot);
    return snapshot;
  }
}

void PipelineCache::InsertLocked(const PipelineCacheKey& key,
                                 Snapshot snapshot) {
  const size_t bytes = snapshot->ApproxBytes();
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Upgrade: replace in place, refresh recency. Holders of the old
    // snapshot keep it alive on their own. Responses solved on the old
    // snapshot go with it.
    bytes_ -= it->second.bytes;
    it->second.prepared = std::move(snapshot);
    it->second.bytes = bytes;
    it->second.memo.clear();
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(snapshot), bytes, lru_.begin(), {}});
  }
  bytes_ += bytes;
  EnforceLimitsLocked();
}

void PipelineCache::EnforceLimitsLocked() {
  // LRU + byte-budget eviction. May reclaim the entry just inserted (or just
  // memoized into) when it alone exceeds the byte budget — the caller's
  // snapshot and response stay valid.
  while (!lru_.empty() &&
         ((options_.max_entries != 0 && entries_.size() > options_.max_entries) ||
          (options_.max_bytes != 0 && bytes_ > options_.max_bytes))) {
    EvictLocked(entries_.find(lru_.back()), /*count_eviction=*/true);
  }
}

void PipelineCache::EvictLocked(
    std::unordered_map<PipelineCacheKey, Entry, KeyHash>::iterator it,
    bool count_eviction) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  if (count_eviction) ++evictions_;
}

std::shared_ptr<const MiningResponse> PipelineCache::LookupResponse(
    const PipelineCacheKey& key, const Snapshot& snapshot,
    const std::string& request_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.prepared != snapshot) return nullptr;
  std::vector<MemoizedResponse>& memo = it->second.memo;
  for (auto hit = memo.begin(); hit != memo.end(); ++hit) {
    if (hit->request_key == request_key) {
      std::rotate(memo.begin(), hit, std::next(hit));
      ++response_hits_;
      return memo.front().response;
    }
  }
  return nullptr;
}

void PipelineCache::StoreResponse(const PipelineCacheKey& key,
                                  const Snapshot& snapshot,
                                  std::string request_key,
                                  MiningResponse response) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.prepared != snapshot) return;
  Entry& entry = it->second;
  for (const MemoizedResponse& memoized : entry.memo) {
    // A racing session solved the same request first; its response is
    // bit-identical, so keep it.
    if (memoized.request_key == request_key) return;
  }
  const size_t bytes = sizeof(MemoizedResponse) + request_key.capacity() +
                       ApproxBytes(response);
  entry.memo.insert(
      entry.memo.begin(),
      MemoizedResponse{std::move(request_key),
                       std::make_shared<const MiningResponse>(
                           std::move(response)),
                       bytes});
  entry.bytes += bytes;
  bytes_ += bytes;
  if (entry.memo.size() > kResponseMemoCapacity) {
    entry.bytes -= entry.memo.back().bytes;
    bytes_ -= entry.memo.back().bytes;
    entry.memo.pop_back();
  }
  EnforceLimitsLocked();
}

void PipelineCache::Publish(const PipelineCacheKey& key, Snapshot snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++republishes_;
  InsertLocked(key, std::move(snapshot));
}

std::vector<std::pair<PipelineCacheKey, PipelineCache::Snapshot>>
PipelineCache::SnapshotsFor(uint64_t graph_fingerprint) const {
  std::vector<std::pair<PipelineCacheKey, Snapshot>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : entries_) {
      if (key.graph_fingerprint == graph_fingerprint) {
        out.emplace_back(key, entry.prepared);
      }
    }
  }
  // Deterministic order (by the platform-stable key hash), so a republish
  // walk inserts into the LRU list identically everywhere — hash-map
  // iteration order must not leak into eviction behavior.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.Hash() < b.first.Hash();
  });
  return out;
}

void PipelineCache::EraseFingerprint(uint64_t graph_fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->first.graph_fingerprint == graph_fingerprint) {
      EvictLocked(it, /*count_eviction=*/false);
    }
    it = next;
  }
}

void PipelineCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

size_t PipelineCache::EntriesFor(uint64_t graph_fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  for (const auto& [key, entry] : entries_) {
    count += key.graph_fingerprint == graph_fingerprint ? 1 : 0;
  }
  return count;
}

PipelineCacheStats PipelineCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PipelineCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.upgrades = upgrades_;
  stats.republishes = republishes_;
  stats.evictions = evictions_;
  stats.response_hits = response_hits_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace dcs
