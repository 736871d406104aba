#include "api/miner_session.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "api/solver_registry.h"
#include "core/newsea.h"
#include "store/artifact_store.h"
#include "store/job_journal.h"
#include "graph/csr_patcher.h"
#include "graph/difference.h"
#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dcs {

namespace {

// One side's pending map as CsrPatcher assignments in ascending
// PackVertexPair order, so the flush folds the batch deterministically
// regardless of hash-map iteration order. Each pair's new absolute weight
// is base.EdgeWeight(u,v) + delta — the exact sum a from-scratch build's
// duplicate merge evaluates (an absent pair reads as 0).
std::vector<EdgePatch> SortedPending(
    const Graph& base, const std::unordered_map<uint64_t, double>& pending) {
  std::vector<EdgePatch> out;
  out.reserve(pending.size());
  for (const auto& [key, delta] : pending) {
    const VertexPair pair = UnpackVertexPair(key);
    out.push_back(
        EdgePatch{pair.u, pair.v, base.EdgeWeight(pair.u, pair.v) + delta});
  }
  std::sort(out.begin(), out.end(), [](const EdgePatch& a, const EdgePatch& b) {
    return PackVertexPair(a.u, a.v) < PackVertexPair(b.u, b.v);
  });
  return out;
}

// Establishes the session invariant that every resident edge satisfies
// |w| > kDefaultZeroEps, the drop rule of every flush. Graphs built with a
// smaller threshold (Build(0.0), io) may carry smaller weights; a
// from-scratch build of the same content would drop them, so normalize once
// up front to keep streamed sessions bit-identical to from-scratch ones.
Graph NormalizedForZeroEps(Graph graph) {
  bool needs_filter = false;
  for (VertexId u = 0; u < graph.NumVertices() && !needs_filter; ++u) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      if (std::fabs(nb.weight) <= kDefaultZeroEps) {
        needs_filter = true;
        break;
      }
    }
  }
  if (!needs_filter) return graph;
  GraphBuilder builder(graph.NumVertices());
  for (const Edge& e : graph.UndirectedEdges()) {
    builder.AddEdgeUnchecked(e.u, e.v, e.weight);
  }
  Result<Graph> filtered = builder.Build();
  DCS_CHECK(filtered.ok()) << filtered.status().ToString();
  return std::move(filtered).value();
}

}  // namespace

MinerSession::MinerSession(VertexId num_vertices, Graph g1, Graph g2,
                           SessionOptions options)
    : num_vertices_(num_vertices),
      options_(options),
      g1_(NormalizedForZeroEps(std::move(g1))),
      g2_(NormalizedForZeroEps(std::move(g2))) {
  if (options_.pipeline_cache != nullptr) {
    cache_ = options_.pipeline_cache;
  } else {
    PipelineCacheOptions cache_options;
    // 0 meant "evict everything but the fresh pipeline" before the cache
    // extraction, not PipelineCacheOptions' 0 = unbounded; keep that.
    cache_options.max_entries =
        std::max<size_t>(1, options_.max_cached_pipelines);
    cache_ = std::make_shared<PipelineCache>(cache_options);
  }
  g1_accumulator_ = g1_.ContentAccumulator();
  g2_accumulator_ = g2_.ContentAccumulator();
  graph_fingerprint_ = CurrentFingerprint();
  cache_->HoldFingerprint(graph_fingerprint_);
  if (options_.artifact_store != nullptr) {
    UseArtifactStore(options_.artifact_store);
  }
}

uint64_t MinerSession::CurrentFingerprint() const {
  return PipelineGraphFingerprintFromParts(
      Graph::FingerprintFromAccumulator(num_vertices_, g1_accumulator_),
      Graph::FingerprintFromAccumulator(num_vertices_, g2_accumulator_));
}

Result<MinerSession> MinerSession::Create(Graph g1, Graph g2,
                                          SessionOptions options) {
  if (g1.NumVertices() != g2.NumVertices()) {
    return Status::InvalidArgument(
        "G1 and G2 must share one vertex set (got " +
        std::to_string(g1.NumVertices()) + " vs " +
        std::to_string(g2.NumVertices()) + " vertices)");
  }
  if (g1.NumVertices() == 0) {
    return Status::InvalidArgument("session needs at least one vertex");
  }
  // Read the count before the same call expression moves g1 (argument
  // evaluation order is unspecified).
  const VertexId num_vertices = g1.NumVertices();
  return MinerSession(num_vertices, std::move(g1), std::move(g2), options);
}

Result<MinerSession> MinerSession::CreateStreaming(VertexId num_vertices,
                                                   SessionOptions options) {
  if (num_vertices == 0) {
    return Status::InvalidArgument("session needs at least one vertex");
  }
  return MinerSession(num_vertices, Graph(num_vertices), Graph(num_vertices),
                      options);
}

void MinerSession::UsePipelineCache(std::shared_ptr<PipelineCache> cache) {
  DCS_CHECK(cache != nullptr) << "UsePipelineCache needs a cache";
  cache_ = std::move(cache);
  cache_->HoldFingerprint(graph_fingerprint_);
}

void MinerSession::UseWorkerPool(std::shared_ptr<ThreadPool> pool) {
  DCS_CHECK(pool != nullptr) << "UseWorkerPool needs a pool";
  options_.worker_pool = std::move(pool);
  // Any private pool spawned before the attach is dropped; it has no tasks
  // in flight (the session is externally synchronized) and EnsurePool now
  // always returns the shared pool.
  pool_.reset();
}

void MinerSession::UseArtifactStore(std::shared_ptr<ArtifactStore> store) {
  DCS_CHECK(store != nullptr) << "UseArtifactStore needs a store";
  store_ = std::move(store);
  // Attaching (or re-attaching) resets the degradation ladder: the new store
  // gets a fresh chance at persistence. Its failure counters are
  // store-lifetime, so a store that is already failing re-degrades on the
  // next RefreshHealth instead of being grandfathered in as healthy.
  health_ = HealthState::kHealthy;
  // Warm boot: hydrate every valid stored pipeline of this graph pair into
  // the cache, so the first post-restart queries hit instead of rebuilding.
  // Corrupt records are skipped (and counted by the store); a skipped or
  // missing record just falls back to the lazy load / cold build below.
  store_hits_ +=
      store_->WarmBootFingerprint(graph_fingerprint_, cache_.get());
}

Status MinerSession::ValidateUpdate(VertexId num_vertices, VertexId u,
                                    VertexId v, double delta) {
  if (u == v) {
    return Status::InvalidArgument("self-loop update on vertex " +
                                   std::to_string(u));
  }
  if (u >= num_vertices || v >= num_vertices) {
    return Status::OutOfRange("update endpoint out of range");
  }
  if (!std::isfinite(delta)) {
    return Status::InvalidArgument("non-finite update delta");
  }
  return Status::OK();
}

Status MinerSession::ApplyUpdate(UpdateSide side, VertexId u, VertexId v,
                                 double delta) {
  DCS_RETURN_NOT_OK(ValidateUpdate(num_vertices_, u, v, delta));
  auto& pending = side == UpdateSide::kG1 ? pending_g1_ : pending_g2_;
  pending[PackVertexPair(u, v)] += delta;
  ++num_updates_;
  graphs_dirty_ = true;
  return Status::OK();
}

void MinerSession::FlushUpdates() {
  if (!graphs_dirty_) return;
  const std::vector<EdgePatch> patches1 = SortedPending(g1_, pending_g1_);
  const std::vector<EdgePatch> patches2 = SortedPending(g2_, pending_g2_);
  pending_g1_.clear();
  pending_g2_.clear();
  graphs_dirty_ = false;
  // A side without deltas keeps its graph: Apply would copy it unchanged.
  if (!patches1.empty()) {
    g1_ = CsrPatcher::Apply(g1_, patches1, kDefaultZeroEps, &g1_accumulator_);
  }
  if (!patches2.empty()) {
    g2_ = CsrPatcher::Apply(g2_, patches2, kDefaultZeroEps, &g2_accumulator_);
  }
  ++num_update_patches_;

  // A net-zero batch (every pair's deltas cancelled) leaves the content —
  // and therefore the fingerprint and every cached entry — as it was.
  const uint64_t stale_fingerprint = graph_fingerprint_;
  graph_fingerprint_ = CurrentFingerprint();
  if (graph_fingerprint_ == stale_fingerprint) return;

  // Union of pairs touched on either side, sorted — the only pairs whose
  // difference-graph image can have changed.
  std::vector<std::pair<VertexId, VertexId>> changed;
  changed.reserve(patches1.size() + patches2.size());
  for (const EdgePatch& p : patches1) changed.emplace_back(p.u, p.v);
  for (const EdgePatch& p : patches2) changed.emplace_back(p.u, p.v);
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  // Republish this fingerprint's cached pipelines, delta-patched, under the
  // refreshed fingerprint: post-update queries hit instead of cold-missing.
  // Copy-on-write — other sessions sharing the cache (and pinned snapshots)
  // keep the old, untouched entries. The patched entries are not written to
  // the store: updates are not journaled, so no restart asks for this
  // fingerprint, and an entry evicted before its next query cold-builds and
  // writes back once through PreparePipeline.
  for (const auto& [key, snapshot] : cache_->SnapshotsFor(stale_fingerprint)) {
    PipelineCacheKey fresh_key = key;
    fresh_key.graph_fingerprint = graph_fingerprint_;
    cache_->Publish(fresh_key, std::make_shared<const PreparedPipeline>(
                                   PatchPipeline(*snapshot, key, changed)));
    ++num_republished_;
  }
  // The stale entries go once no other attached session holds the old
  // content (always, for a private cache); while one does, they still serve
  // it.
  cache_->MoveFingerprintHolder(stale_fingerprint, graph_fingerprint_);
}

PreparedPipeline MinerSession::PatchPipeline(
    const PreparedPipeline& old_pipeline, const PipelineCacheKey& key,
    std::span<const std::pair<VertexId, VertexId>> changed_pairs) const {
  const Graph& first = key.flip ? g2_ : g1_;
  const Graph& second = key.flip ? g1_ : g2_;

  // Re-derive the pipeline image of every changed pair from the patched
  // graphs, mirroring BuildDifferenceGraph →
  // DiscretizeWeights → WeightsClampedAbove exactly (stored weights are
  // never zero, so weight == 0 means the pair is absent on that side). A
  // zero assignment drops the pair.
  std::vector<EdgePatch> difference_patches;
  difference_patches.reserve(changed_pairs.size());
  for (const auto& [u, v] : changed_pairs) {
    const double w1 = first.EdgeWeight(u, v);
    const double w2 = second.EdgeWeight(u, v);
    double d;
    if (w1 != 0.0 && w2 != 0.0) {
      d = w2 - key.alpha * w1;
    } else if (w1 != 0.0) {
      d = -key.alpha * w1;
    } else {
      d = w2;  // 0 when absent on both sides → dropped below
    }
    double weight = 0.0;
    if (d != 0.0 && std::fabs(d) > kDefaultZeroEps) {
      weight = d;
      if (key.discretize) {
        const double mapped = key.discretize->Map(d);
        weight = mapped != 0.0 && std::fabs(mapped) > kDefaultZeroEps
                     ? mapped
                     : 0.0;
      }
      if (weight != 0.0 && key.clamp_weights_above) {
        weight = std::min(weight, *key.clamp_weights_above);
      }
    }
    difference_patches.push_back(EdgePatch{u, v, weight});
  }

  PreparedPipeline out;
  out.difference = CsrPatcher::Apply(old_pipeline.difference,
                                     difference_patches, /*zero_eps=*/0.0);
  if (!old_pipeline.has_ga_artifacts) return out;

  // GD+ and the §V-D bounds follow the same delta: a changed pair's positive
  // image is its new difference weight when positive, absent otherwise.
  std::vector<EdgePatch> positive_patches;
  std::vector<PositivePairDelta> positive_changes;
  positive_patches.reserve(difference_patches.size());
  for (const EdgePatch& patch : difference_patches) {
    const double old_d = old_pipeline.difference.EdgeWeight(patch.u, patch.v);
    const double old_positive = old_d > 0.0 ? old_d : 0.0;
    const double new_positive = patch.weight > 0.0 ? patch.weight : 0.0;
    positive_patches.push_back(EdgePatch{patch.u, patch.v, new_positive});
    if (old_positive != new_positive) {
      positive_changes.push_back(
          PositivePairDelta{patch.u, patch.v, old_positive, new_positive});
    }
  }
  out.positive_part = CsrPatcher::Apply(old_pipeline.positive_part,
                                        positive_patches, /*zero_eps=*/0.0);
  out.smart_bounds = old_pipeline.smart_bounds;
  ApplySmartInitBoundsDelta(old_pipeline.positive_part, out.positive_part,
                            positive_changes, &out.smart_bounds);
  // Only the rows of the changed GD+ pairs' endpoints differ; a descent
  // that read none of them replays exactly (the proof is above DriveSeeds
  // in core/newsea.cc).
  std::vector<VertexId> changed_endpoints;
  changed_endpoints.reserve(positive_changes.size() * 2);
  for (const PositivePairDelta& change : positive_changes) {
    changed_endpoints.push_back(change.u);
    changed_endpoints.push_back(change.v);
  }
  // A pipeline gets its memo at its first patch: only a patched pipeline's
  // solves can follow on descents recorded before the update, and a
  // pipeline rebuilt for every request would fill a memo nothing reads.
  out.descent_memo =
      old_pipeline.descent_memo != nullptr
          ? old_pipeline.descent_memo->CarriedOver(changed_endpoints)
          : std::make_shared<DescentMemo>();
  out.has_ga_artifacts = true;
  // GD+ holds only strictly positive assignments by construction, so the
  // non-negativity mark carries over without an O(m) rescan.
  out.validated_nonnegative = old_pipeline.validated_nonnegative;
  return out;
}

PipelineCacheKey MinerSession::PipelineKeyFor(
    const MiningRequest& request) const {
  PipelineCacheKey key;
  key.graph_fingerprint = graph_fingerprint_;
  key.alpha = request.alpha;
  key.flip = request.flip;
  key.discretize = request.discretize;
  key.clamp_weights_above = request.clamp_weights_above;
  return key;
}

Result<PipelineCache::Snapshot> MinerSession::PreparePipeline(
    const MiningRequest& request, bool need_ga, bool* reused) {
  FlushUpdates();
  const PipelineCacheKey key = PipelineKeyFor(request);

  // Runs on this thread inside GetOrPrepare (without the cache lock), at
  // most once per key across every session attached to the cache.
  bool built_difference = false;
  bool store_hit = false;
  bool store_miss = false;
  bool write_back = false;
  auto build =
      [&](const PreparedPipeline* reuse) -> Result<PreparedPipeline> {
    PreparedPipeline out;
    bool have_difference = false;
    if (reuse != nullptr) {
      // GA upgrade of a difference-only entry: reuse the cached graph.
      out.difference = reuse->difference;
      have_difference = true;
    } else if (store_ != nullptr) {
      // Lazy store load for a key the warm boot did not hydrate (evicted
      // since, or stored by another process after this session attached).
      // LoadPipeline verifies checksum and exact key; anything corrupt or
      // stale reads as absent and the cold build below rebuilds over it.
      Result<PreparedPipeline> stored = store_->LoadPipeline(key);
      if (stored.ok()) {
        store_hit = true;
        if (!need_ga || stored->has_ga_artifacts) {
          return std::move(stored).value();
        }
        // The stored record is difference-only; derive the GA artifacts
        // below and write the upgraded pipeline back.
        out.difference = std::move(stored->difference);
        have_difference = true;
      } else {
        store_miss = true;
      }
    }
    if (!have_difference) {
      const Graph& first = request.flip ? g2_ : g1_;
      const Graph& second = request.flip ? g1_ : g2_;
      // The difference, discretize and clamp steps are the same graph/
      // bodies PatchPipeline mirrors entry by entry, which is what keeps
      // the patch path and the artifact-store fingerprints bit-exact.
      DCS_ASSIGN_OR_RETURN(out.difference,
                           BuildDifferenceGraph(first, second, request.alpha));
      if (request.discretize) {
        DCS_ASSIGN_OR_RETURN(
            out.difference,
            DiscretizeWeights(out.difference, *request.discretize));
      }
      if (request.clamp_weights_above) {
        out.difference = out.difference.WeightsClampedAbove(
            *request.clamp_weights_above);
      }
      built_difference = true;
    }
    if (need_ga) {
      out.positive_part = out.difference.PositivePart();
      out.smart_bounds = ComputeSmartInitBounds(out.positive_part);
      // Validate once per prepared pipeline; every solve against it then
      // skips the per-call O(m) scan. PositivePart output cannot fail the
      // scan, so a failure here is a library bug, not bad input.
      DCS_CHECK(ValidateNonNegativeWeights(out.positive_part).ok());
      out.validated_nonnegative = true;
      out.has_ga_artifacts = true;
    }
    // Anything not loaded verbatim from the store — a cold build, a GA
    // upgrade of a cached or stored difference — is worth writing back.
    write_back = true;
    return out;
  };
  DCS_ASSIGN_OR_RETURN(PipelineCache::Snapshot snapshot,
                       cache_->GetOrPrepare(key, need_ga, build, reused));
  if (built_difference) ++num_rebuilds_;
  if (store_hit) ++store_hits_;
  if (store_miss) ++store_misses_;
  if (write_back && store_ != nullptr) {
    // Asynchronous: the background writer appends after this query returns;
    // the hot path never blocks on disk.
    store_->PutPipelineAsync(key, snapshot);
  }
  return snapshot;
}

// True when the request needs only the builtin average-degree solve. Custom
// solvers may want GD+ regardless of measure, so artifacts are prepared
// unless the request is a pure builtin average-degree mine.
bool MinerSession::AverageDegreeOnly(const MiningRequest& request) {
  return request.measure == Measure::kAverageDegree &&
         request.ad_solver_name == "dcsad";
}

bool MinerSession::Memoizable(const MiningRequest& request) {
  if (request.warm_start || request.ga_solver.cancel != nullptr) return false;
  const bool dispatches_ad = request.measure != Measure::kGraphAffinity;
  const bool dispatches_ga = request.measure != Measure::kAverageDegree;
  return (!dispatches_ad || request.ad_solver_name == "dcsad") &&
         (!dispatches_ga || request.ga_solver_name == "dcsga");
}

std::string MinerSession::ResponseMemoKey(const MiningRequest& request) {
  // Mined subgraphs do not depend on these fields (priority and deadline
  // only schedule; parallelism only reshards the seed loop), so requests
  // differing only there share one memo slot.
  MiningRequest canonical = request;
  canonical.priority = 0;
  canonical.deadline_seconds = 0.0;
  canonical.ga_solver.parallelism = 0;
  return JobJournal::EncodeRequest(canonical);
}

// True when the request's solve path can consume the shared pool: the knob
// is honored by the builtin "dcsga" solver's top-1 NewSEA path only, while
// custom GA solvers get the pool and may use it however they like.
bool MinerSession::WantsIntraParallelism(const MiningRequest& request) {
  if (request.ga_solver.parallelism == 1) return false;
  if (request.measure == Measure::kAverageDegree) return false;
  // Mirror the seed driver's one-shard rules — collect_cliques forces one
  // shard, and the top-k harvest (RunDcsgaAllInits) always runs one — so no
  // pool is spawned for a solve that cannot use it.
  if (request.ga_solver_name != "dcsga") return true;
  return request.top_k == 1 && !request.ga_solver.collect_cliques;
}

size_t MinerSession::ParallelismBudget() const {
  return options_.max_parallelism != 0 ? options_.max_parallelism
                                       : ThreadPool::DefaultConcurrency();
}

ThreadPool* MinerSession::EnsurePool(size_t concurrency) {
  // A shared pool (SessionOptions::worker_pool / UseWorkerPool) is used
  // as-is: its size is a service-level decision, and growing it here would
  // race with the other sessions running on it. ParallelismBudget still
  // bounds the shard fan-out of this session's solves.
  if (options_.worker_pool != nullptr) return options_.worker_pool.get();
  const size_t target =
      std::max<size_t>(1, std::min(concurrency, ParallelismBudget()));
  // Replacing the pool is safe here: EnsurePool runs on the session thread
  // before any solve is dispatched, so no tasks are in flight. Not shrinking
  // keeps repeated mixed workloads from churning threads.
  if (pool_ == nullptr || pool_->concurrency() < target) {
    pool_ = std::make_unique<ThreadPool>(target - 1);
  }
  return pool_.get();
}

HealthState MinerSession::RefreshHealth() {
  // Snapshot the attached store's failure counters into session members so
  // num_store_write_errors()/num_store_retries() keep reporting them after a
  // store-offline detach.
  if (store_ != nullptr) {
    const ArtifactStoreStats stats = store_->stats();
    store_write_errors_ = stats.write_errors;
    store_retries_ = stats.io_retries;
  }
  HealthState next = health_;
  if (health_ != HealthState::kStoreOffline && store_ != nullptr) {
    if (store_write_errors_ >= kStoreFailureThreshold) {
      next = HealthState::kStoreOffline;
    } else if (store_write_errors_ > 0) {
      next = HealthState::kDegraded;
    }
  }
  if (next != health_) {
    health_ = next;
    ++health_transitions_;
    if (health_ == HealthState::kStoreOffline) {
      // Detach: drop our reference (other owners are unaffected). Mining
      // continues memory-only and bit-identically; only persistence stops.
      store_ = nullptr;
    }
  }
  return health_;
}

Status MinerSession::Solve(const PreparedPipeline& pipeline,
                           const MiningRequest& request,
                           std::span<const VertexId> warm_support,
                           ThreadPool* pool, const CancelToken* cancel,
                           MiningResponse* response) const {
  SolverContext context;
  context.difference = &pipeline.difference;
  if (pipeline.has_ga_artifacts) {
    context.positive_part = &pipeline.positive_part;
    context.smart_bounds = &pipeline.smart_bounds;
    context.positive_part_validated = pipeline.validated_nonnegative;
    context.descent_memo = pipeline.descent_memo.get();
  }
  context.pool = pool;
  context.parallelism_budget = static_cast<uint32_t>(ParallelismBudget());
  context.warm_support = warm_support;
  context.cancel = cancel;

  // Measure dispatches are the coarsest cancellation points: a token fired
  // before a dispatch aborts the whole solve, one fired mid-dispatch is the
  // solver's to observe (the builtin "dcsga" polls per seed).
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("mining request cancelled");
  }
  if (request.measure == Measure::kAverageDegree ||
      request.measure == Measure::kBoth) {
    const SolverFn solver =
        SolverRegistry::Global().Find(request.ad_solver_name);
    if (solver == nullptr) {
      return Status::NotFound("no solver registered under '" +
                              request.ad_solver_name + "'");
    }
    Result<std::vector<RankedSubgraph>> ranked =
        solver(context, request, &response->telemetry);
    if (!ranked.ok()) return ranked.status();
    response->average_degree = std::move(*ranked);
  }
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("mining request cancelled");
  }
  if (request.measure == Measure::kGraphAffinity ||
      request.measure == Measure::kBoth) {
    const SolverFn solver =
        SolverRegistry::Global().Find(request.ga_solver_name);
    if (solver == nullptr) {
      return Status::NotFound("no solver registered under '" +
                              request.ga_solver_name + "'");
    }
    Result<std::vector<RankedSubgraph>> ranked =
        solver(context, request, &response->telemetry);
    if (!ranked.ok()) return ranked.status();
    response->graph_affinity = std::move(*ranked);
  }
  return Status::OK();
}

Result<MiningResponse> MinerSession::Mine(const MiningRequest& request) {
  return Mine(request, /*cancel=*/nullptr);
}

Result<MiningResponse> MinerSession::Mine(const MiningRequest& request,
                                          const CancelToken* cancel) {
  DCS_RETURN_NOT_OK(request.Validate());
  // Advance the degradation ladder before touching the store: write-back
  // failures from earlier requests are observed here, and a store that just
  // crossed the threshold is detached before this request would use it.
  RefreshHealth();

  WallTimer build_timer;
  bool reused = false;
  DCS_ASSIGN_OR_RETURN(
      PipelineCache::Snapshot pipeline,
      PreparePipeline(request, !AverageDegreeOnly(request), &reused));
  const double build_seconds = build_timer.Seconds();

  WallTimer solve_timer;
  // The response memo: a repeated request against the very snapshot it was
  // solved on returns the stored response instead of solving again.
  const std::string memo_key =
      Memoizable(request) ? ResponseMemoKey(request) : std::string();
  const PipelineCacheKey pipeline_key = PipelineKeyFor(request);
  std::shared_ptr<const MiningResponse> memoized =
      memo_key.empty()
          ? nullptr
          : cache_->LookupResponse(pipeline_key, pipeline, memo_key);
  MiningResponse response;
  if (memoized != nullptr) {
    // Same cancellation point as Solve's first dispatch.
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("mining request cancelled");
    }
    response = *memoized;
    response.telemetry.response_memo_hit = true;
  } else {
    const std::span<const VertexId> warm =
        request.warm_start ? std::span<const VertexId>(warm_support_)
                           : std::span<const VertexId>();
    // A single request gets up to the session's whole thread budget; the
    // pool is only spawned when the solve path can actually use it (see
    // WantsIntraParallelism), and only as large as the request asks for
    // (auto = whole budget).
    ThreadPool* pool = nullptr;
    if (WantsIntraParallelism(request)) {
      pool = EnsurePool(request.ga_solver.parallelism == 0
                            ? ParallelismBudget()
                            : request.ga_solver.parallelism);
    }
    DCS_RETURN_NOT_OK(Solve(*pipeline, request, warm, pool, cancel, &response));
    // A token that fired after the last poll leaves a complete answer, but
    // the job it belongs to was cancelled; do not let it outlive the job.
    if (!memo_key.empty() && (cancel == nullptr || !cancel->cancelled())) {
      cache_->StoreResponse(pipeline_key, pipeline, memo_key, response);
    }
  }
  response.telemetry.build_seconds = build_seconds;
  response.telemetry.solve_seconds = solve_timer.Seconds();
  response.telemetry.reused_cached_difference = reused;

  if (request.measure != Measure::kAverageDegree &&
      !response.graph_affinity.empty()) {
    warm_support_ = response.graph_affinity.front().vertices;
  }
  return response;
}

Result<Graph> MinerSession::DifferenceSnapshot(double alpha, bool flip) {
  // Inspection only: an average-degree probe prepares just the difference
  // graph, not the DCSGA artifacts.
  MiningRequest probe;
  probe.alpha = alpha;
  probe.flip = flip;
  probe.measure = Measure::kAverageDegree;
  return DifferenceSnapshot(probe);
}

Result<Graph> MinerSession::DifferenceSnapshot(const MiningRequest& request) {
  DCS_RETURN_NOT_OK(request.Validate());
  bool reused = false;
  // Prepare exactly what Mine(request) prepares, so a Mine that follows
  // reuses this entry instead of superseding it with a GA upgrade (and, with
  // a store attached, writing the pipeline a second time).
  DCS_ASSIGN_OR_RETURN(
      PipelineCache::Snapshot pipeline,
      PreparePipeline(request, !AverageDegreeOnly(request), &reused));
  return pipeline->difference;
}

}  // namespace dcs
