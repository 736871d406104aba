// Public request/response vocabulary of the libdcs mining facade.
//
// The api/ layer is the one surface tools and applications program against:
// a MiningRequest describes *what* to mine (measure, difference-graph
// pipeline, ranking), a MinerSession (api/miner_session.h) decides *how*
// (caching, dispatch, batching), and a MiningResponse carries the ranked
// subgraphs plus a telemetry block of facts about that request alone (the
// session, cache, store and journal report their lifetime counters through
// their own accessors). Everything below core/ is an internal
// layer; this header deliberately re-exports the few internal types a caller
// legitimately needs (Graph, DiscretizeSpec, the DCSGA solver knobs) so that
// consumers never include core/ or densest/ headers directly.
//
// Ownership: every type here is a plain value — requests, responses and
// telemetry own their data outright, are freely copyable/movable, and hold
// no reference back into any session.
//
// Thread safety: values, so const access is safe anywhere; distinct
// instances never share state.
//
// Determinism: with warm_start off, a MiningResponse is a pure function of
// the session's graphs and the request — independent of thread counts,
// batching, async queueing, pipeline-cache sharing and response memoization.
// The exceptions are enumerated on MiningTelemetry (wall times, cache-state
// flags, and — under intra-request parallelism — the work counters).

#ifndef DCS_API_MINING_H_
#define DCS_API_MINING_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/newsea.h"       // re-exports DcsgaOptions (solver knobs)
#include "graph/difference.h"  // re-exports DiscretizeSpec
#include "graph/graph.h"       // re-exports Graph, VertexId, Edge
#include "util/status.h"

namespace dcs {

/// Which density-contrast measure(s) a request mines (§III of the paper).
enum class Measure : uint8_t {
  kAverageDegree,  ///< DCSAD: max W_D(S)/|S| via DCSGreedy (Algorithm 2)
  kGraphAffinity,  ///< DCSGA: max xᵀDx via NewSEA (Algorithm 5)
  kBoth,           ///< mine both measures in one request
};

/// "ad", "ga" or "both".
const char* MeasureToString(Measure measure);

/// Parses "ad" / "ga" / "both" (the dcs_mine flag values); fails otherwise.
Result<Measure> ParseMeasure(std::string_view name);

/// \brief Position on the graceful-degradation ladder of a session (or the
/// service wrapping it) with respect to its persistent store.
///
/// kHealthy: no store failures observed (or no store attached — persistence
/// was never promised). kDegraded: the store reported write-back failures
/// but stays attached; loads and write-backs keep being attempted.
/// kStoreOffline: failures reached SessionOptions::store_failure_threshold
/// and the session *detached* the store — mining continues memory-only and
/// bit-identically (results never depended on persistence), only warm-boot
/// durability is lost. Transitions are strictly downward and counted by
/// MinerSession::num_health_transitions.
enum class HealthState : uint8_t {
  kHealthy,
  kDegraded,
  kStoreOffline,
};

/// "healthy", "degraded" or "store-offline".
const char* HealthStateToString(HealthState state);

/// Which input graph a streaming update applies to.
enum class UpdateSide : uint8_t {
  kG1,  ///< baseline / historical graph (enters D with weight −α·w)
  kG2,  ///< current graph (enters D with weight +w)
};

/// An input edge for BuildGraphFromEdges.
struct WeightedEdge {
  VertexId u;
  VertexId v;
  double weight;
};

/// \brief Builds an immutable Graph from explicit edges — the facade-level
/// alternative to graph/graph_builder.h. Duplicate edges accumulate; fails
/// on self-loops, out-of-range endpoints, or non-finite weights.
Result<Graph> BuildGraphFromEdges(VertexId num_vertices,
                                  std::span<const WeightedEdge> edges);

/// \brief One mining query against a MinerSession.
///
/// The difference-graph pipeline is: D = A2 − α·A1 (swapped when `flip`),
/// then optional Discrete mapping, then optional heavy-edge clamping. Two
/// requests with equal pipeline fields share the session's cached difference
/// graph regardless of their measure/ranking fields.
struct MiningRequest {
  Measure measure = Measure::kBoth;

  // --- difference-graph pipeline (cache key) ---
  /// §III-D scale of G1; must be finite and positive.
  double alpha = 1.0;
  /// Mine G1 − G2 instead of G2 − G1 ("disappearing" direction, §VI-B).
  bool flip = false;
  /// Apply the paper's Discrete weight mapping (§VI-B) when set.
  std::optional<DiscretizeSpec> discretize;
  /// Replace every weight w by min(w, cap) when set (§III-D heavy-edge
  /// adjustment); the cap must be finite and positive.
  std::optional<double> clamp_weights_above;

  // --- ranking ---
  /// Mine up to this many subgraphs per measure (the §VII future-work
  /// extension; 1 = the paper's single-DCS setting).
  uint32_t top_k = 1;
  /// Require top-k DCSGA cliques to be pairwise vertex-disjoint.
  bool disjoint = true;
  /// Drop DCSAD subgraphs with density difference <= this.
  double min_density = 0.0;
  /// Drop DCSGA cliques with affinity difference <= this.
  double min_affinity = 0.0;

  // --- solver knobs ---
  /// Inner DCSGA solver configuration (shrink kind, descent tolerances, and
  /// the intra-request `parallelism` knob: 1 = sequential, 0 = auto — take
  /// the session's whole thread budget — k > 1 = exactly k seed shards,
  /// capped by the session pool). Mined
  /// subgraphs are bit-identical across all parallelism values; only the
  /// work-counter telemetry varies. The builtin "dcsga" solver honors the
  /// knob for top_k == 1 solves; the top-k clique harvest runs sequentially
  /// (its collected-clique set depends on seed order).
  DcsgaOptions ga_solver;
  /// Seed the DCSGA solve from the session's previous solution (streaming
  /// drift tracking). Off by default so that requests are pure functions of
  /// the session's graphs — the precondition for the response memo and for
  /// concurrent service jobs to equal sequential mining bit-for-bit.
  bool warm_start = false;

  /// Scheduling priority of the job under a multi-tenant MiningService
  /// (api/mining_service.h): when several tenants have runnable work, the
  /// scheduler dispatches the tenant whose head job has the highest
  /// priority first (ties broken by the weighted-fair virtual clock).
  /// Priority never reorders jobs *within* a tenant — each tenant's queue
  /// stays strict FIFO, which is what keeps update fencing and per-tenant
  /// bit-identity intact. Ignored by synchronous MinerSession::Mine.
  int32_t priority = 0;

  /// Per-job deadline in seconds, measured from submission (so queue wait
  /// counts — the admission-control view). 0 = no deadline. Enforced by
  /// MiningService's watchdog, which fires the job's CancelToken at the
  /// deadline: the job lands in kFailed carrying StatusCode::
  /// kDeadlineExceeded, keeps no partial result, and the session stays
  /// reusable. Synchronous MinerSession::Mine ignores the field (callers
  /// owning the thread can wrap their own CancelToken; dcs_mine --deadline
  /// does exactly that).
  double deadline_seconds = 0.0;

  /// Registry names of the solvers to dispatch to (api/solver_registry.h);
  /// replaceable without touching MinerSession.
  std::string ad_solver_name = "dcsad";
  std::string ga_solver_name = "dcsga";

  /// Field-level validation; every MinerSession entry point calls this.
  Status Validate() const;
};

/// One mined subgraph, ranked within its measure.
struct RankedSubgraph {
  /// Member vertices, ascending.
  std::vector<VertexId> vertices;
  /// The measure value: density difference ρ_D(S) for DCSAD, affinity
  /// difference xᵀDx for DCSGA.
  double value = 0.0;
  /// DCSGA only: embedding mass per vertex (parallel to `vertices`, sums to
  /// 1). Empty for DCSAD results.
  std::vector<double> weights;
  /// DCSAD only: the data-dependent approximation ratio β of Theorem 2.
  double ratio_bound = 0.0;
  /// True iff the subgraph is a positive clique of the difference graph —
  /// guaranteed for DCSGA output (Theorem 5), informational for DCSAD.
  bool positive_clique = false;
};

/// \brief Counters and timings of one request's execution.
///
/// Every field is a fact about this request alone. Lifetime counters of the
/// objects that served it live with their owners: MinerSession
/// (num_rebuilds, num_update_patches, num_store_hits, health, ...),
/// PipelineCache::stats, ArtifactStore::stats and MiningService
/// (journal_stats, num_recovered_jobs, num_health_transitions, ...).
/// Telemetry never feeds a result.
struct MiningTelemetry {
  uint64_t initializations = 0;     ///< DCSGA seeds actually tried
  /// DCSGA candidate seeds never descended from (Theorem 6 smart-init
  /// pruning). With intra-request parallelism on, this and the iteration
  /// counters depend on thread timing; the mined subgraphs never do.
  uint64_t pruned_seeds = 0;
  uint64_t cd_iterations = 0;       ///< coordinate-descent iterations total
  uint64_t replicator_sweeps = 0;   ///< replicator baseline only
  uint32_t expansion_errors = 0;    ///< replicator baseline only
  /// True iff this request's difference graph came from the pipeline cache —
  /// prepared earlier by this session, or by *any* session sharing the cache
  /// (api/pipeline_cache.h).
  bool reused_cached_difference = false;
  /// True iff this response came from the pipeline cache's response memo
  /// instead of a solve: an identical request (scheduling-only fields
  /// aside) was solved earlier against the very same cached pipeline — by
  /// this session or any session sharing the cache. Cache-state telemetry
  /// like reused_cached_difference: a memoized response carries the stored
  /// subgraphs and work counters, bit-identical to solving again. Only
  /// requests with warm_start off that dispatch just the builtin "dcsad" /
  /// "dcsga" solvers are memoized.
  bool response_memo_hit = false;
  /// True iff a warm-start seed was attempted for the DCSGA solve.
  bool warm_start_used = false;
  /// Wall time spent materializing pipeline artifacts (0 on cache hits) and
  /// solving. Non-deterministic, like the two cache-state flags above (which
  /// depend on what the cache held); every other response field is a pure
  /// function of graphs + request.
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// \brief Response to one MiningRequest.
///
/// `average_degree` is filled for measures kAverageDegree/kBoth and
/// `graph_affinity` for kGraphAffinity/kBoth; either may be empty when no
/// subgraph clears the request's min_density / min_affinity floor.
struct MiningResponse {
  std::vector<RankedSubgraph> average_degree;
  std::vector<RankedSubgraph> graph_affinity;
  MiningTelemetry telemetry;
};

}  // namespace dcs

#endif  // DCS_API_MINING_H_
