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
// wall-time and cache-counter telemetry vary.
//
// Scale path: a single request's NewSEA solve can shard its seed loop
// across the session's worker pool (intra-request parallelism,
// bit-identical to sequential — see core/newsea.h). Independent requests
// run concurrently through api/mining_service.h, whose executors share one
// pool and one PipelineCache; a shared PipelineCache makes N sessions over
// the same dataset pay the pipeline-preparation prefix once.
//
// Streaming path: a small ApplyUpdate batch is folded in O(Δ) — base
// graphs through a CSR overlay (graph/csr_patcher.h), the fingerprint
// through incremental accumulators, and every cached pipeline by a delta
// patch republished under the new fingerprint — with a full-rebuild
// fallback past the SessionOptions::patch_rebuild_ratio crossover. Both
// paths are bit-identical; see ARCHITECTURE.md "Streaming update data
// flow".

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
  /// into the pipeline cache — and thereafter pipelines this session builds
  /// (or upgrades, or republishes after a streaming patch) are written back
  /// asynchronously, so a restarted process serves its first queries from
  /// disk instead of rebuilding. Corrupt or stale records are silently
  /// rebuilt over; responses are bit-identical either way.
  std::shared_ptr<ArtifactStore> artifact_store;
  /// Graceful-degradation ladder (see HealthState in api/mining.h): once
  /// the attached store has accumulated this many failed write-backs, the
  /// session detaches it and continues memory-only — mining results are
  /// unchanged bit for bit, only persistence stops. Any failure count below
  /// the threshold reads as kDegraded. 0 disables the ladder (the session
  /// never detaches, staying at most kDegraded).
  uint32_t store_failure_threshold = 4;
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
  /// Magnitude below which an accumulated weight counts as cancelled when
  /// streaming updates are folded into the graphs.
  double zero_eps = 1e-12;
  /// Streaming update crossover: a flush whose batch of Δ distinct pending
  /// pairs satisfies Δ <= patch_rebuild_ratio · (m1 + m2) is folded by the
  /// O(Δ) patch path — the CSR graphs are spliced in place
  /// (graph/csr_patcher.h), the graph fingerprint is updated incrementally,
  /// and every cached pipeline of the old fingerprint is delta-patched and
  /// republished under the new one, so the next queries hit instead of
  /// rebuilding. Larger batches (and the initial bulk load, where m = 0)
  /// take the classic full rebuild; both paths are bit-identical. 0 disables
  /// patching. The default sits safely under the measured crossover — the
  /// patch path stays ahead of a rebuild well past Δ/m = 0.25; both sides
  /// of the crossover are pinned equal by StreamingUpdateEquivalenceTest.
  double patch_rebuild_ratio = 0.25;
  /// Permit floating-point reassociation in the DCSGA reduction kernels for
  /// every request this session serves (per-request opt-in:
  /// MiningRequest::ga_solver.fast_math). Off (default): every solve is
  /// bit-identical to the scalar reference kernels at every thread count
  /// and ISA. On: the affinity reductions may use vector-lane accumulation
  /// — results stay deterministic for a fixed (graphs, request), but are no
  /// longer bit-identical to the default path. See core/kernels.h and the
  /// ARCHITECTURE.md "Kernel layer" section for the exactness rules.
  bool fast_math = false;
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
  /// O(1); the graphs are refreshed lazily at the next query. A small batch
  /// (see SessionOptions::patch_rebuild_ratio) is folded by the O(Δ) patch
  /// path: the CSR content is spliced, and this session's cached pipelines
  /// are delta-patched and *republished* under the refreshed fingerprint —
  /// the next query hits the cache instead of rebuilding. Larger batches
  /// fall back to a full rebuild whose next queries prepare fresh entries.
  /// Either way the move is copy-on-write: other sessions sharing the cache
  /// — and snapshots pinned by in-flight solves — keep the old, immutable
  /// entries. Fails on self-loops, out-of-range endpoints, or non-finite
  /// deltas.
  Status ApplyUpdate(UpdateSide side, VertexId u, VertexId v, double delta);

  /// The validation ApplyUpdate performs, exposed so queueing layers
  /// (api/mining_service.h) can reject bad updates eagerly and treat the
  /// deferred apply as infallible.
  static Status ValidateUpdate(VertexId num_vertices, VertexId u, VertexId v,
                               double delta);

  /// \brief Executes one mining request. See MiningRequest for semantics.
  Result<MiningResponse> Mine(const MiningRequest& request);

  /// \brief Mine with cooperative cancellation: the solve polls `cancel`
  /// at coarse safe points (between measures; between NewSEA seed chunks)
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
  /// sharing the cache prepared, and across patched flushes, which splice
  /// cached differences instead of materializing fresh ones).
  uint64_t num_rebuilds() const { return num_rebuilds_; }
  /// Pending-update flushes folded by the O(Δ) patch path.
  uint64_t num_update_patches() const { return num_update_patches_; }
  /// Pending-update flushes that took the full-rebuild fallback (batch past
  /// the Δ/m crossover, the initial bulk load, or patching disabled).
  uint64_t num_update_rebuilds() const { return num_update_rebuilds_; }
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
  /// hydrated into the pipeline cache, and subsequent builds/upgrades/
  /// republishes are written back asynchronously. See
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
  /// detaching the store when the failure count crossed
  /// SessionOptions::store_failure_threshold. Every Mine runs this
  /// on entry; callers that just flushed a store can invoke it directly to
  /// observe the transition without mining.
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
  // One side's pending batch entry, canonicalized to u < v.
  struct PendingDelta {
    VertexId u;
    VertexId v;
    double delta;
  };

  MinerSession(VertexId num_vertices, Graph g1, Graph g2,
               SessionOptions options);

  // One side's pending map in ascending PackVertexPair order — the batch
  // order both flush paths fold deterministically.
  static std::vector<PendingDelta> SortedPending(
      const std::unordered_map<uint64_t, double>& pending);

  // Folds pending streaming deltas into g1_/g2_ when dirty; refreshes the
  // graph fingerprint (copy-on-write invalidation) and, on a private cache,
  // drops the now-unreachable entries. Small batches (see
  // SessionOptions::patch_rebuild_ratio) take the O(Δ) patch path; the rest
  // take the full rebuild. Both fold the batch in sorted PackVertexPair
  // order, so the result is independent of hash-map iteration order.
  Status FlushUpdates();

  // The O(Δ) path: folds both sides' batches into the base-graph overlays
  // (maintaining the fingerprint accumulators), then delta-patches every
  // cached pipeline of `stale_fingerprint` and republishes it under the
  // refreshed fingerprint. The base CSR arrays are *not* copied here — the
  // untouched spans are shared by leaving them in place and recording the
  // changed pairs in the overlay; MaterializeBaseGraphs splices lazily.
  void PatchGraphsAndPipelines(const std::vector<PendingDelta>& d1,
                               const std::vector<PendingDelta>& d2,
                               uint64_t stale_fingerprint);

  // The weight of {u,v} in one side's current content: the overlay entry
  // when present (values within zero_eps of 0 read as absent, mirroring the
  // builder's drop rule), the CSR weight otherwise.
  double OverlaidWeight(const Graph& base,
                        const std::unordered_map<uint64_t, double>& overlay,
                        VertexId u, VertexId v) const;

  // Splices any pending overlays into the CSR graphs (bit-identical to a
  // rebuild of the same content) and clears them. Called before anything
  // that needs a real CSR of the current content: a cold pipeline build,
  // the full-rebuild flush path, or overlay growth past the crossover.
  void MaterializeBaseGraphs();

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
  // parallelism) zeroed and the session's fast_math default folded in.
  std::string ResponseMemoKey(const MiningRequest& request) const;

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

  // Copies the cache's hit/miss/bytes counters (and the other lifetime
  // counters) into `telemetry`; called last, so they read *after* the
  // request.
  void FillCacheTelemetry(MiningTelemetry* telemetry) const;

  VertexId num_vertices_;
  SessionOptions options_;
  Graph g1_{0};
  Graph g2_{0};
  // Patched-but-not-yet-spliced base-graph content: absolute weights per
  // packed pair, layered over g1_/g2_ (the session's true graphs are
  // CSR ⊕ overlay). Keeping the batch here instead of copying the CSR
  // arrays is what makes a small flush O(Δ); see MaterializeBaseGraphs.
  std::unordered_map<uint64_t, double> overlay_g1_;
  std::unordered_map<uint64_t, double> overlay_g2_;
  // Pending streaming deltas keyed by packed (min,max) vertex pair.
  std::unordered_map<uint64_t, double> pending_g1_;
  std::unordered_map<uint64_t, double> pending_g2_;
  bool graphs_dirty_ = false;
  // The cache preparing this session's pipelines; private unless
  // SessionOptions::pipeline_cache (or UsePipelineCache) attached a shared
  // one. Never null.
  std::shared_ptr<PipelineCache> cache_;
  bool private_cache_ = true;
  // The attached persistent store (SessionOptions::artifact_store or
  // UseArtifactStore); null for a memory-only session.
  std::shared_ptr<ArtifactStore> store_;
  uint64_t store_hits_ = 0;
  uint64_t store_misses_ = 0;
  // Degradation-ladder state (see RefreshHealth): current rung, lifetime
  // transition count, and the last observed store failure counters (kept
  // here so telemetry survives a store-offline detach).
  HealthState health_ = HealthState::kHealthy;
  uint64_t health_transitions_ = 0;
  uint64_t store_write_errors_ = 0;
  uint64_t store_retries_ = 0;
  // PipelineGraphFingerprint of (g1_, g2_) after the last flush — the
  // content half of this session's cache keys — plus the per-graph content
  // accumulators it is derived from (Graph::ContentAccumulator), maintained
  // incrementally by the patch path.
  uint64_t graph_fingerprint_ = 0;
  uint64_t g1_accumulator_ = 0;
  uint64_t g2_accumulator_ = 0;
  // Private worker pool for intra-request NewSEA seed sharding; created
  // lazily by EnsurePool.
  std::unique_ptr<ThreadPool> pool_;
  uint64_t num_updates_ = 0;
  uint64_t num_rebuilds_ = 0;
  uint64_t num_update_patches_ = 0;
  uint64_t num_update_rebuilds_ = 0;
  uint64_t num_republished_ = 0;
  // Support of the most recent DCSGA answer, offered to warm_start requests.
  std::vector<VertexId> warm_support_;
};

}  // namespace dcs

#endif  // DCS_API_MINER_SESSION_H_
