// PipelineCache — shared, cross-session storage of prepared difference-graph
// pipelines, the scale-out layer for heavy multi-user traffic over the same
// datasets.
//
// The expensive prefix of every DCS solve is pipeline preparation: building
// the difference graph D = A2 − α·A1 (with discretize/clamp), extracting
// GD+, and computing the §V-D smart-initialization bounds (whose τ_u is the
// k-core reduction of GD+). A single MinerSession already amortizes this
// prefix across its own queries; PipelineCache extends the amortization
// across *sessions*: N sessions (or MiningService instances) serving the
// same dataset hand one PipelineCache to their SessionOptions and the prefix
// is paid once per distinct (graph pair, pipeline) content instead of once
// per session.
//
// Keying is by *content*, not identity: PipelineCacheKey combines a stable
// fingerprint of the (G1, G2) pair (Graph::ContentFingerprint) with the
// MiningRequest's pipeline fields (alpha, flip, discretize, clamp). Two
// sessions holding separate but equal copies of a dataset therefore share
// entries; equal fingerprints are treated as content equality (a 2^-64
// collision is accepted).
//
// Ownership & invalidation. Entries hold immutable PreparedPipeline
// artifacts behind shared_ptr snapshots. A solve pins the snapshot it was
// served, so eviction — or another session's concurrent activity — can
// never invalidate an in-flight solve. Invalidation is copy-on-write: a
// streaming ApplyUpdate changes the updating session's graph fingerprint,
// which redirects that session to fresh keys while every other session (and
// every pinned snapshot) keeps reading the old, still-immutable entries.
// The cache counts the sessions attached at each fingerprint and drops a
// fingerprint's entries when the last of them moves on
// (MoveFingerprintHolder); LRU/byte-budget eviction reclaims the rest.
//
// Thread safety. All methods are safe to call from any thread. GetOrPrepare
// runs its build callback *outside* the cache lock and gates concurrent
// builders per key: when N sessions race on a cold key, exactly one runs the
// build and the rest block until the snapshot is published (so a shared
// dataset really is prepared once — the acceptance criterion the tests pin).
//
// Determinism. PreparedPipeline artifacts are pure functions of the key's
// content, so a solve served from a shared snapshot is bit-identical to one
// over a privately prepared pipeline. Only the hit/miss/bytes telemetry
// depends on which sessions got there first.
//
// Response memo. Each entry also remembers the last few responses solved on
// its snapshot (LookupResponse / StoreResponse), so a repeated request
// against an unchanged pipeline skips the solve. A memoized response is tied
// to the exact snapshot it was solved on: replacing the entry's snapshot (GA
// upgrade, streaming republish) clears the memo, and dropping the entry
// drops it. Which requests may be memoized is the session's decision.
//
// Descent memo. Below the response memo, a GA pipeline that a streaming
// patch produced carries a per-seed descent memo
// (PreparedPipeline::descent_memo), internally synchronized and filled by
// every builtin DCSGA solve on it; the next patch carries over the records
// it leaves valid, so the solves after a batch replay the seeds whose
// descents it left untouched. It never changes a result bit. Its bytes
// count toward max_bytes as it grows.

#ifndef DCS_API_PIPELINE_CACHE_H_
#define DCS_API_PIPELINE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/mining.h"
#include "core/descent_memo.h"
#include "core/newsea.h"       // SmartInitBounds
#include "graph/difference.h"  // DiscretizeSpec
#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// \brief Content key of one prepared pipeline: the graph-pair fingerprint
/// plus the MiningRequest fields that determine the materialized difference
/// graph. Equal keys share one cache entry across sessions.
struct PipelineCacheKey {
  /// PipelineGraphFingerprint of the session's (G1, G2) pair.
  uint64_t graph_fingerprint = 0;
  double alpha = 1.0;
  bool flip = false;
  std::optional<DiscretizeSpec> discretize;
  std::optional<double> clamp_weights_above;

  /// Stable 64-bit hash over all fields (bucket hash; full equality still
  /// decides entry identity).
  uint64_t Hash() const;

  /// Equality uses *bit patterns* on the floating-point fields so it always
  /// agrees with Hash: a NaN field still matches itself (a key can never
  /// become unfindable), and -0.0 and 0.0 are distinct keys.
  friend bool operator==(const PipelineCacheKey&, const PipelineCacheKey&);
};

/// \brief Order-sensitive fingerprint of a (G1, G2) session graph pair for
/// PipelineCacheKey::graph_fingerprint; flipping the pair changes the value.
uint64_t PipelineGraphFingerprint(const Graph& g1, const Graph& g2);

/// \brief The same pair fingerprint from precomputed per-graph
/// ContentFingerprint values — the O(1) tail of the streaming patch path,
/// whose per-graph halves are maintained incrementally via
/// Graph::FingerprintFromAccumulator.
uint64_t PipelineGraphFingerprintFromParts(uint64_t g1_fingerprint,
                                           uint64_t g2_fingerprint);

/// \brief The immutable artifacts of one materialized pipeline: the
/// difference graph after discretize/clamp, and — once a graph-affinity
/// solve needed them — GD+, its smart-init bounds, and the non-negativity
/// validation mark.
///
/// Instances published by PipelineCache are const behind
/// PipelineCache::Snapshot and never mutated; a pipeline lacking GA
/// artifacts is *upgraded* by publishing a replacement entry (the cheap
/// copy-on-write path that reuses the cached difference graph).
struct PreparedPipeline {
  Graph difference{0};
  bool has_ga_artifacts = false;
  Graph positive_part{0};
  SmartInitBounds smart_bounds;
  /// GD+ passed the non-negativity scan once; solves against this pipeline
  /// skip their own O(m) scan.
  bool validated_nonnegative = false;
  /// Per-seed NewSEA / harvest descents on `positive_part`
  /// (core/descent_memo.h): the one part of a published pipeline that
  /// changes, filled by the solves that run on it. Null until a streaming
  /// patch produces the pipeline: the patch creates the memo, or carries
  /// over the records of its predecessor's that its changes leave valid.
  /// Not persisted.
  std::shared_ptr<DescentMemo> descent_memo;

  /// Approximate heap footprint of the graphs and bounds.
  size_t ArtifactBytes() const;
  /// ArtifactBytes plus the descent memo as it stands: the unit of the cache
  /// byte budget.
  size_t ApproxBytes() const;
};

/// Capacity knobs. Both limits are applied after each insertion, evicting
/// least-recently-used entries first; a zero value disables that limit.
struct PipelineCacheOptions {
  /// Max distinct prepared pipelines kept resident. 0 = unbounded.
  size_t max_entries = 64;
  /// Byte budget over PreparedPipeline::ApproxBytes (descent memos counted
  /// as they grow, checked at every insertion and hit) plus memoized
  /// responses. 0 = unbounded. A budget
  /// smaller than a single entry degrades gracefully: the entry is built,
  /// returned to the caller (whose snapshot stays valid) and immediately
  /// evicted.
  size_t max_bytes = 0;
};

/// Point-in-time counters; cache-lifetime, shared across every session
/// attached to the cache.
struct PipelineCacheStats {
  /// GetOrPrepare calls fully served from a resident entry.
  uint64_t hits = 0;
  /// GetOrPrepare calls that built the difference graph.
  uint64_t misses = 0;
  /// Calls that reused a cached difference graph but added the GA artifacts
  /// (counted separately from hits/misses).
  uint64_t upgrades = 0;
  /// Entries published directly via Publish — the streaming patch path
  /// re-homing a session's pipelines under its new graph fingerprint instead
  /// of letting every key cold-miss after an update.
  uint64_t republishes = 0;
  uint64_t evictions = 0;
  /// LookupResponse calls served from an entry's response memo.
  uint64_t response_hits = 0;
  size_t entries = 0;
  /// Resident bytes: entry ApproxBytes (descent memos included) plus
  /// memoized responses.
  size_t bytes = 0;
};

/// \brief Thread-safe, content-keyed LRU cache of PreparedPipeline
/// snapshots. See the file comment for the sharing, invalidation and
/// determinism contract.
///
/// Typical wiring: create one with make_shared, hand it to N sessions via
/// SessionOptions::pipeline_cache (or MiningServiceOptions::shared_cache).
/// A MinerSession without a shared cache creates a private instance, which
/// preserves the pre-cache-extraction single-session behavior exactly.
class PipelineCache {
 public:
  /// A pinned, immutable view of one prepared pipeline. Holding it keeps
  /// the artifacts alive across eviction; release promptly after the solve.
  using Snapshot = std::shared_ptr<const PreparedPipeline>;

  /// Builds the artifacts for a key, called without the cache lock held.
  /// `reuse` is the resident pipeline to upgrade (copy its difference graph
  /// and add GA artifacts), or nullptr to build from the session's graphs.
  using BuildFn =
      std::function<Result<PreparedPipeline>(const PreparedPipeline* reuse)>;

  /// Responses memoized per entry; the least recently used is dropped first.
  static constexpr size_t kResponseMemoCapacity = 4;

  explicit PipelineCache(PipelineCacheOptions options = {});

  PipelineCache(const PipelineCache&) = delete;
  PipelineCache& operator=(const PipelineCache&) = delete;

  /// \brief Returns the snapshot for `key`, running `build` at most once
  /// across all concurrent callers of the key.
  ///
  /// A resident entry that satisfies `need_ga` is a hit. Otherwise the
  /// caller either becomes the key's single builder (running `build` outside
  /// the lock, then publishing) or blocks until the racing builder
  /// publishes. `*reused_difference` reports whether the difference graph
  /// came from the cache (full hit or GA upgrade) — the value sessions
  /// surface as MiningTelemetry::reused_cached_difference. On build failure
  /// the status propagates to the caller, the cache is left unchanged, and
  /// racing waiters of the key retry the build themselves.
  Result<Snapshot> GetOrPrepare(const PipelineCacheKey& key, bool need_ga,
                                const BuildFn& build, bool* reused_difference);

  /// \brief Publishes a ready-made snapshot under `key`, replacing any
  /// resident entry and counting toward the LRU/byte limits.
  ///
  /// This is the streaming delta-maintenance hook: after an ApplyUpdate
  /// batch is patched in O(Δ), MinerSession republishes each of its old
  /// fingerprint's entries — patched the same way — under the new
  /// fingerprint, so the post-update queries hit instead of rebuilding.
  /// Copy-on-write throughout: the old entries (and any pinned snapshots)
  /// are untouched.
  void Publish(const PipelineCacheKey& key, Snapshot snapshot);

  /// \brief The response memoized under `request_key` on `key`'s entry, or
  /// null. Hits only while the entry still holds `snapshot` — the pipeline
  /// the caller would solve on — and counts PipelineCacheStats::
  /// response_hits. The returned response is immutable and outlives
  /// eviction.
  std::shared_ptr<const MiningResponse> LookupResponse(
      const PipelineCacheKey& key, const Snapshot& snapshot,
      const std::string& request_key);

  /// \brief Memoizes `response`, solved on `snapshot`, under `request_key`
  /// on `key`'s entry. A no-op when the entry is gone or holds another
  /// snapshot, or when the key is already memoized. The memo's bytes count
  /// toward the byte budget, so a large response may evict its own entry.
  void StoreResponse(const PipelineCacheKey& key, const Snapshot& snapshot,
                     std::string request_key, MiningResponse response);

  /// Resident entries of one graph-pair fingerprint, for the republish walk
  /// above. Snapshots are pinned by the returned vector, so concurrent
  /// eviction cannot invalidate them.
  std::vector<std::pair<PipelineCacheKey, Snapshot>> SnapshotsFor(
      uint64_t graph_fingerprint) const;

  /// Drops every resident entry of one graph-pair fingerprint (pinned
  /// snapshots stay valid). Sessions re-materialize on demand.
  void EraseFingerprint(uint64_t graph_fingerprint);

  /// \brief Counts one more session whose graph pair has
  /// `graph_fingerprint` (MinerSession calls it as it attaches).
  void HoldFingerprint(uint64_t graph_fingerprint);

  /// \brief A holding session's graphs moved from fingerprint `from` to
  /// `to` (a streaming update, after its republish): counts it under `to`,
  /// and drops every entry of `from` once no attached session holds `from`
  /// — nothing can hit those entries until a session over that exact
  /// content attaches again, which rebuilds or warm-boots them. A session
  /// that is destroyed keeps its count, so its entries age out by LRU.
  void MoveFingerprintHolder(uint64_t from, uint64_t to);

  /// Drops every resident entry.
  void Clear();

  /// Resident entries for one graph-pair fingerprint (a session's view of
  /// "its" cached pipelines).
  size_t EntriesFor(uint64_t graph_fingerprint) const;

  /// Lifetime counters and current occupancy.
  PipelineCacheStats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const PipelineCacheKey& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };

  struct MemoizedResponse {
    std::string request_key;
    std::shared_ptr<const MiningResponse> response;
    size_t bytes = 0;
  };

  struct Entry {
    Snapshot prepared;
    /// The snapshot's ArtifactBytes plus the response memo's bytes; the
    /// snapshot's descent memo grows after insertion and is read live.
    size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<PipelineCacheKey>::iterator lru_it;
    /// Responses solved on `prepared`, most recently used first; at most
    /// kResponseMemoCapacity.
    std::vector<MemoizedResponse> memo;
  };

  // Replaces/creates the entry for `key` and applies the LRU/byte limits.
  // Mutex held.
  void InsertLocked(const PipelineCacheKey& key, Snapshot snapshot);
  // bytes_ plus every resident descent memo's current bytes. Mutex held.
  size_t TotalBytesLocked() const;
  // Evicts least-recently-used entries until both limits hold. Mutex held.
  void EnforceLimitsLocked();
  // EraseFingerprint's body. Mutex held.
  void EraseFingerprintLocked(uint64_t graph_fingerprint);
  // Drops `it`'s entry. Mutex held.
  void EvictLocked(std::unordered_map<PipelineCacheKey, Entry,
                                      KeyHash>::iterator it,
                   bool count_eviction);

  const PipelineCacheOptions options_;

  mutable std::mutex mutex_;
  // Wakes waiters when a key leaves building_ (its build published/failed).
  std::condition_variable build_done_;
  std::unordered_map<PipelineCacheKey, Entry, KeyHash> entries_;
  // Keys with a build in flight; at most one builder per key.
  std::unordered_set<PipelineCacheKey, KeyHash> building_;
  // LRU order of resident keys, most recent first.
  std::list<PipelineCacheKey> lru_;
  // Attached sessions per graph-pair fingerprint (HoldFingerprint).
  std::unordered_map<uint64_t, size_t> holders_;
  // Entry bytes, descent memos excluded.
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t upgrades_ = 0;
  uint64_t republishes_ = 0;
  uint64_t evictions_ = 0;
  uint64_t response_hits_ = 0;
};

}  // namespace dcs

#endif  // DCS_API_PIPELINE_CACHE_H_
