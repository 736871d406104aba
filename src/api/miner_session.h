// MinerSession — the session-oriented entry point of libdcs.
//
// A session owns the two input graphs G1/G2 (or grows them from a stream of
// weight updates), prepares each requested difference-graph pipeline
// (alpha/flip/discretize/clamp) through a PipelineCache — private by
// default, shareable across sessions (api/pipeline_cache.h) — lazily
// derives the DCSGA artifacts (GD+ and the §V-D smart-initialization
// bounds) per pipeline, and dispatches measures to solvers through the
// SolverRegistry. This is the one API tools, examples and services program
// against; core/ and densest/ are internal layers behind it.
//
// Ownership: a session owns its graphs, its pending update stream, its warm
// start seed and its worker pool; it owns its pipeline cache only when no
// shared cache was supplied (SessionOptions::pipeline_cache), otherwise it
// holds a shared_ptr co-owning the cache with the other attached sessions.
//
// Thread safety: single-threaded by design — one session per serving thread
// is the intended deployment shape, with api/mining_service.h as the
// queueing layer when callers are concurrent. A *shared PipelineCache* is the one deliberately concurrent
// seam: any number of sessions on any threads may attach to one cache.
//
// Determinism: responses are pure functions of the session's graphs and the
// request (given warm_start off); neither the thread count nor serving
// pipelines from a shared cache changes a mined subgraph bit — only the
// wall-time and cache-state telemetry vary.
//
// Scale path: a single request's NewSEA solve can shard its seed loop
// across the session's worker pool (intra-request parallelism,
// bit-identical to sequential — see core/newsea.h). Independent requests
// run concurrently through api/mining_service.h, whose executors share one
// pool and one PipelineCache; a shared PipelineCache makes N sessions over
// the same dataset pay the pipeline-preparation prefix once.
//
// Streaming path: ApplyUpdate batches are folded at the next query in
// O(Δ·deg + m) — each side's base graph by one CsrPatcher splice
// (graph/csr_patcher.h), the fingerprint through incremental accumulators,
// and every cached pipeline by a delta patch republished under the new
// fingerprint. Bit-identical to a from-scratch session over the same
// graphs; see ARCHITECTURE.md "Streaming update data flow".

#ifndef DCS_API_MINER_SESSION_H_
#define DCS_API_MINER_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/mining.h"
#include "api/pipeline_cache.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dcs {

class ArtifactStore;  // store/artifact_store.h (re-exported by
                      // api/artifact_store.h)

/// Graceful-degradation ladder (see HealthState in api/mining.h): once the
/// attached store has accumulated this many failed write-backs, the session
/// detaches it and continues memory-only — mining results are unchanged bit
/// for bit, only persistence stops. Any failure count below it reads as
/// kDegraded.
inline constexpr uint64_t kStoreFailureThreshold = 4;

/// Session-level tuning.
struct SessionOptions {
  /// Capacity of the session's *private* pipeline cache (LRU eviction);
  /// 0 behaves as 1 — the most recent pipeline is always kept. Ignored when
  /// `pipeline_cache` is set — the shared cache then applies its own
  /// PipelineCacheOptions.
  size_t max_cached_pipelines = 8;
  /// Cross-session shared pipeline cache. Null (default) gives the session
  /// a private cache, preserving single-session behavior exactly; non-null
  /// attaches the session to the shared cache so equal datasets prepare
  /// their pipelines once across all attached sessions.
  std::shared_ptr<PipelineCache> pipeline_cache;
  /// Persistent artifact store (api/artifact_store.h). Null (default)
  /// keeps the session memory-only. Non-null warm-boots the session at
  /// creation — every valid stored pipeline of its graph pair is hydrated
  /// into the pipeline cache — and thereafter pipelines this session
  /// cold-builds (or upgrades with GA artifacts) are written back
  /// asynchronously, so a restarted process serves its first queries from
  /// disk instead of rebuilding. Pipelines republished by a streaming patch
  /// stay in the cache only: no restart can name their graphs. Corrupt or
  /// stale records are silently rebuilt over; responses are bit-identical
  /// either way.
  std::shared_ptr<ArtifactStore> artifact_store;
  /// Total thread budget of the session's worker pool; 0 =
  /// std::thread::hardware_concurrency(). Mine grants the whole budget to
  /// requests whose ga_solver.parallelism is 0 (auto). The pool is spawned
  /// lazily on the first intra-parallel solve.
  uint32_t max_parallelism = 0;
  /// Cross-session shared worker pool. Null (default) keeps the session's
  /// private, lazily spawned pool — single-session behavior exactly.
  /// Non-null makes every intra-parallel solve run on the shared
  /// pool instead: the multi-tenant MiningService attaches one pool to all
  /// of its tenant sessions, so N tenants contend for one fixed set of
  /// worker threads rather than spawning N private pools. max_parallelism
  /// still caps how many seed shards one solve fans out, and responses are
  /// bit-identical whichever pool executes them (see util/thread_pool.h —
  /// RunTasks is safe to call concurrently from many sessions).
  std::shared_ptr<ThreadPool> worker_pool;
};

/// \brief A mining session over a pair of graphs on a fixed vertex universe.
///
/// See the file comment for the ownership / thread-safety / determinism
/// contract.
class MinerSession {
 public:
  /// Batch construction: both graphs up front. Fails when the vertex counts
  /// differ or are zero.
  static Result<MinerSession> Create(Graph g1, Graph g2,
                                     SessionOptions options = {});

  /// Streaming construction: an empty G1/G2 pair over `num_vertices`
  /// vertices, to be populated through ApplyUpdate. Fails on a zero count.
  static Result<MinerSession> CreateStreaming(VertexId num_vertices,
                                              SessionOptions options = {});

  MinerSession(MinerSession&&) = default;
  MinerSession& operator=(MinerSession&&) = default;

  VertexId num_vertices() const { return num_vertices_; }

  /// \brief Adds `delta` to the weight of undirected edge {u,v} on `side`.
  ///
  /// O(1); the graphs are refreshed lazily at the next query, which splices
  /// the batch into the CSR content and delta-patches this session's cached
  /// pipelines, *republishing* them under the refreshed fingerprint — the
  /// next query hits the cache instead of rebuilding. The move is
  /// copy-on-write: other sessions sharing the cache — and snapshots pinned
  /// by in-flight solves — keep the old, immutable entries, which the cache
  /// drops once no attached session holds the old content. Fails on
  /// self-loops, out-of-range endpoints, or non-finite deltas.
  Status ApplyUpdate(UpdateSide side, VertexId u, VertexId v, double delta);

  /// The validation ApplyUpdate performs, exposed so queueing layers
  /// (api/mining_service.h) can reject bad updates eagerly and treat the
  /// deferred apply as infallible.
  static Status ValidateUpdate(VertexId num_vertices, VertexId u, VertexId v,
                               double delta);

  /// \brief Executes one mining request. See MiningRequest for semantics.
  Result<MiningResponse> Mine(const MiningRequest& request);

  /// \brief Mine with cooperative cancellation: the solve polls `cancel`
  /// at coarse safe points (between measures; between DCSGA seeds)
  /// and returns Status::Cancelled once it fires, leaving the session fully
  /// reusable — no partial result is kept, the warm-start seed is untouched,
  /// and a subsequent identical request returns the exact uncancelled
  /// answer. `cancel` may be null (equivalent to Mine(request)).
  Result<MiningResponse> Mine(const MiningRequest& request,
                              const CancelToken* cancel);

  /// \brief Copy of the difference graph D = A2 − α·A1 (swapped when
  /// `flip`), without discretize/clamp — for inspection and export. Shares
  /// the pipeline cache with Mine.
  Result<Graph> DifferenceSnapshot(double alpha = 1.0, bool flip = false);

  /// \brief Copy of the difference graph exactly as `request` would mine it,
  /// including its discretize/clamp steps.
  Result<Graph> DifferenceSnapshot(const MiningRequest& request);

  /// Streaming updates accepted so far.
  uint64_t num_updates() const { return num_updates_; }
  /// Difference graphs *this session* materialized so far (flat across
  /// cached queries — including queries served by entries another session
  /// sharing the cache prepared, and across update flushes, which splice
  /// cached differences instead of materializing fresh ones).
  uint64_t num_rebuilds() const { return num_rebuilds_; }
  /// Pending-update batches spliced into the graphs so far.
  uint64_t num_update_patches() const { return num_update_patches_; }
  /// Cached pipeline entries delta-patched and republished under this
  /// session's new fingerprint across all patched flushes.
  uint64_t num_republished_entries() const { return num_republished_; }
  /// Pipelines currently resident in the cache for this session's graphs.
  size_t num_cached_pipelines() const {
    return cache_->EntriesFor(graph_fingerprint_);
  }

  /// The cache preparing this session's pipelines (private or shared);
  /// never null. Exposes hit/miss/bytes via PipelineCache::stats.
  const std::shared_ptr<PipelineCache>& pipeline_cache() const {
    return cache_;
  }

  /// \brief Re-attaches the session to `cache` (non-null) for all
  /// subsequent queries; the previous cache keeps any entries it holds.
  /// Used by MiningService to apply MiningServiceOptions::shared_cache.
  void UsePipelineCache(std::shared_ptr<PipelineCache> cache);

  /// \brief Attaches the persistent `store` (non-null) and warm-boots from
  /// it: every valid stored pipeline of this session's graph pair is
  /// hydrated into the pipeline cache, and subsequent cold builds and GA
  /// upgrades are written back asynchronously. See
  /// SessionOptions::artifact_store.
  void UseArtifactStore(std::shared_ptr<ArtifactStore> store);

  /// \brief Runs all subsequent intra-parallel solves on the
  /// shared pool `pool` (non-null) instead of the session's private pool.
  /// Used by the multi-tenant MiningService so tenant sessions share one
  /// fixed worker set; see SessionOptions::worker_pool.
  void UseWorkerPool(std::shared_ptr<ThreadPool> pool);

  /// The attached persistent store; null when the session is memory-only.
  const std::shared_ptr<ArtifactStore>& artifact_store() const {
    return store_;
  }

  /// Pipelines this session served from the store: warm-boot hydrations
  /// plus lazy per-key loads (including difference-only records upgraded
  /// with GA artifacts in memory).
  uint64_t num_store_hits() const { return store_hits_; }
  /// Pipelines this session asked the store for and had to build cold.
  uint64_t num_store_misses() const { return store_misses_; }

  /// \brief Re-evaluates the degradation ladder against the attached
  /// store's failure counters and returns the (possibly advanced) state —
  /// detaching the store when the failure count reached
  /// kStoreFailureThreshold. Every Mine runs this on entry; callers that
  /// just flushed a store can invoke it directly to observe the transition
  /// without mining.
  HealthState RefreshHealth();

  /// Current position on the degradation ladder (as of the last
  /// RefreshHealth / Mine).
  HealthState health() const { return health_; }
  /// Ladder transitions over the session's lifetime.
  uint64_t num_health_transitions() const { return health_transitions_; }
  /// Store failure counters as last snapshotted by RefreshHealth — retained
  /// across a store-offline detach, unlike store_->stats().
  uint64_t num_store_write_errors() const { return store_write_errors_; }
  uint64_t num_store_retries() const { return store_retries_; }

  /// Drops this session's cached pipelines from the cache; they
  /// re-materialize on demand. Entries of other datasets in a shared cache
  /// are untouched (and pinned snapshots stay valid).
  void InvalidateCaches() { cache_->EraseFingerprint(graph_fingerprint_); }
  /// Forgets the warm-start seed carried between DCSGA queries.
  void ClearWarmStart() { warm_support_.clear(); }

 private:
  MinerSession(VertexId num_vertices, Graph g1, Graph g2,
               SessionOptions options);

  // Folds pending streaming deltas into g1_/g2_ when dirty: each side's
  // batch, in ascending PackVertexPair order, becomes one CsrPatcher splice
  // that also maintains the fingerprint accumulators. Then every cached
  // pipeline of the old fingerprint is delta-patched and republished under
  // the new one (copy-on-write); on a private cache the now-unreachable
  // entries are dropped.
  void FlushUpdates();

  // Delta-derives the patched counterpart of one cached pipeline: re-derives
  // D(u,v) (and its discretize/clamp image) from the already-patched
  // g1_/g2_ for exactly the changed pairs, splices difference and GD+, and
  // maintains the smart-init bounds. Bit-identical to a from-scratch
  // preparation on the patched graphs.
  PreparedPipeline PatchPipeline(
      const PreparedPipeline& old_pipeline, const PipelineCacheKey& key,
      std::span<const std::pair<VertexId, VertexId>> changed_pairs) const;

  // The session's current pair fingerprint, derived from the incrementally
  // maintained per-graph content accumulators.
  uint64_t CurrentFingerprint() const;

  // The cache key of the request's pipeline fields over the session's
  // current graphs (as of the last flush).
  PipelineCacheKey PipelineKeyFor(const MiningRequest& request) const;

  // Returns the cache snapshot for the request's pipeline fields, building
  // (at most once across sessions) as needed. `need_ga` also prepares the
  // DCSGA artifacts; `reused` reports whether the difference graph came
  // from the cache.
  Result<PipelineCache::Snapshot> PreparePipeline(const MiningRequest& request,
                                                  bool need_ga, bool* reused);

  // True when the request's response is a pure function of its pipeline and
  // request bytes: warm_start off, no caller-embedded cancel hook, and only
  // the builtin "dcsad"/"dcsga" solvers dispatched (custom solvers may be
  // impure).
  static bool Memoizable(const MiningRequest& request);

  // The response-memo key of a memoizable request: its journal encoding
  // with the scheduling-only fields (priority, deadline, intra-request
  // parallelism) zeroed.
  static std::string ResponseMemoKey(const MiningRequest& request);

  // True when `request`'s solve path can consume the shared pool (the
  // intra-parallelism knob is set and a path exists that honors it).
  static bool WantsIntraParallelism(const MiningRequest& request);

  // True when the request needs only the builtin average-degree solve, so
  // pipeline preparation can skip the DCSGA artifacts.
  static bool AverageDegreeOnly(const MiningRequest& request);

  // The session's thread budget (max_parallelism, hardware-resolved).
  size_t ParallelismBudget() const;

  // Lazily spawns (or grows) the private pool to `concurrency` slots, capped
  // at ParallelismBudget(); the calling thread is one of the slots, so the
  // pool gets concurrency - 1 workers. Never shrinks an existing pool.
  ThreadPool* EnsurePool(size_t concurrency);

  // Runs the solvers for one prepared request with the session's thread
  // budget; the warm seed, the pool and the (nullable) cancellation token
  // are passed in.
  Status Solve(const PreparedPipeline& pipeline, const MiningRequest& request,
               std::span<const VertexId> warm_support, ThreadPool* pool,
               const CancelToken* cancel, MiningResponse* response) const;

  VertexId num_vertices_;
  SessionOptions options_;
  Graph g1_{0};
  Graph g2_{0};
  // Pending streaming deltas keyed by packed (min,max) vertex pair.
  std::unordered_map<uint64_t, double> pending_g1_;
  std::unordered_map<uint64_t, double> pending_g2_;
  bool graphs_dirty_ = false;
  // The cache preparing this session's pipelines; private unless
  // SessionOptions::pipeline_cache (or UsePipelineCache) attached a shared
  // one. Never null.
  std::shared_ptr<PipelineCache> cache_;
  // The attached persistent store (SessionOptions::artifact_store or
  // UseArtifactStore); null for a memory-only session.
  std::shared_ptr<ArtifactStore> store_;
  uint64_t store_hits_ = 0;
  uint64_t store_misses_ = 0;
  // Degradation-ladder state (see RefreshHealth): current rung, lifetime
  // transition count, and the last observed store failure counters (kept
  // here so the counters survive a store-offline detach).
  HealthState health_ = HealthState::kHealthy;
  uint64_t health_transitions_ = 0;
  uint64_t store_write_errors_ = 0;
  uint64_t store_retries_ = 0;
  // PipelineGraphFingerprint of (g1_, g2_) after the last flush — the
  // content half of this session's cache keys — plus the per-graph content
  // accumulators it is derived from (Graph::ContentAccumulator), maintained
  // incrementally by FlushUpdates.
  uint64_t graph_fingerprint_ = 0;
  uint64_t g1_accumulator_ = 0;
  uint64_t g2_accumulator_ = 0;
  // Private worker pool for intra-request NewSEA seed sharding; created
  // lazily by EnsurePool.
  std::unique_ptr<ThreadPool> pool_;
  uint64_t num_updates_ = 0;
  uint64_t num_rebuilds_ = 0;
  uint64_t num_update_patches_ = 0;
  uint64_t num_republished_ = 0;
  // Support of the most recent DCSGA answer, offered to warm_start requests.
  std::vector<VertexId> warm_support_;
};

}  // namespace dcs

#endif  // DCS_API_MINER_SESSION_H_
