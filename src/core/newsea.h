// NewSEA (Algorithm 5) and the multi-initialization DCSGA drivers of §VI-A.
//
// Three solver configurations from the paper's experiments:
//  * NewSEA            — SEACD + Refinement + the smart initialization order
//                        of §V-D: for each vertex u, μ_u = τ_u·w_u/(τ_u+1)
//                        upper-bounds (Theorem 6) the affinity of any clique
//                        embedding containing u, where w_u bounds the max
//                        edge weight of u's ego net and τ_u is u's core
//                        number in GD+; vertices are tried in descending μ_u
//                        and the loop stops once μ_u ≤ f(best).
//  * SEACD + Refine    — same inner solver, initialized from *every* vertex
//                        (ShrinkKind::kCoordinateDescent, smart init off).
//  * SEA + Refine      — replicator-dynamics SEA [18] from every vertex
//                        (ShrinkKind::kReplicator); counts expansion errors.
//
// All three run through one seed driver in newsea.cc: it walks a seed order
// (μ order with the Theorem 6 stop for NewSEA, id order without a bound for
// the all-inits baselines) over one or more shards, and runs DescendInPlace
// from each seed. DescendInPlace is the only Shrink/Refine body; the
// warm-start initialization of the API layer uses it too.
//
// All three run on GD+: Theorem 5 shows an optimal DCSGA solution is a
// positive clique of GD, i.e. a clique of GD+.

#ifndef DCS_CORE_NEWSEA_H_
#define DCS_CORE_NEWSEA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/coordinate_descent.h"
#include "core/embedding.h"
#include "core/replicator.h"
#include "core/seacd.h"
#include "core/sea.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace dcs {

class DescentMemo;  // core/descent_memo.h
class ThreadPool;   // util/thread_pool.h

/// Which Shrink stage the multi-init driver uses.
enum class ShrinkKind {
  kCoordinateDescent,  ///< SEACD (Algorithm 3)
  kReplicator,         ///< original SEA [18]
};

/// A positive clique discovered by one initialization (support + value).
/// Stored sparsely: `weights[i]` is the embedding mass of `members[i]`.
struct CliqueRecord {
  std::vector<VertexId> members;  ///< ascending vertex ids
  std::vector<double> weights;    ///< parallel to members; sums to 1
  double affinity = 0.0;
};

/// Options shared by NewSEA and the all-inits drivers.
struct DcsgaOptions {
  ShrinkKind shrink = ShrinkKind::kCoordinateDescent;
  SeacdOptions seacd;
  SeaOptions sea;
  CoordinateDescentOptions refinement_descent;
  /// Collect every distinct positive clique found across initializations,
  /// in seed order (needed by the topic tables and Fig. 3; costs memory).
  bool collect_cliques = false;
  /// Seed-driver shards for RunNewSea. 1 (default) runs one shard inline on
  /// the calling thread, which is exactly the sequential Algorithm 5 loop;
  /// 0 means "use everything granted" — the supplied ThreadPool's
  /// concurrency, or the hardware concurrency when no pool is passed; k > 1
  /// asks for exactly k shards. Affinity, support and embedding are
  /// bit-identical across all values (see RunNewSea); the initializations /
  /// cd_iterations / pruned_seeds counters are not, because how far Theorem
  /// 6 pruning reaches depends on thread timing. One shard is forced when
  /// collect_cliques is set (the harvest depends on which seeds the bound
  /// pruned); RunDcsgaAllInits always runs one shard.
  uint32_t parallelism = 1;
  /// Skip the O(m) non-negativity scan of gd_plus. Set only when the caller
  /// has already validated the graph (MinerSession validates each cached
  /// pipeline's GD+ once instead of on every solve).
  bool assume_nonnegative = false;
  /// Cooperative cancellation: the seed driver polls this token before
  /// every seed, on every shard, and aborts the solve with
  /// Status::Cancelled once it fires. Never sampled on the uncancelled path
  /// in a way that affects results — an uncancelled run stays bit-identical.
  /// Not owned; must outlive the solve. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
};

/// Result of a multi-initialization DCSGA solve.
struct DcsgaResult {
  Embedding x;                      ///< best embedding found
  std::vector<VertexId> support;    ///< its support (a clique of GD+)
  double affinity = 0.0;            ///< f(x) = xᵀD+x = xᵀDx on the support
  uint64_t initializations = 0;     ///< seeds actually tried
  uint64_t pruned_seeds = 0;        ///< candidate seeds never descended from
                                    ///< (Theorem 6 / isolated-vertex skips)
  uint32_t expansion_errors = 0;    ///< replicator baseline only
  uint64_t cd_iterations = 0;       ///< coordinate-descent iterations total
  uint64_t replicator_sweeps = 0;   ///< replicator sweeps total
  std::vector<CliqueRecord> cliques;///< if collect_cliques: dedup'd records
};

/// \brief Per-vertex smart-initialization upper bounds of §V-D.
struct SmartInitBounds {
  std::vector<double> w;    ///< w_u: max edge weight touching the ego net T_u
  std::vector<uint32_t> tau;///< τ_u: core number in GD+
  std::vector<double> mu;   ///< μ_u = τ_u·w_u/(τ_u+1)
  /// Max incident edge weight per vertex (−inf when isolated) — the
  /// intermediate w_u is the closed-neighborhood max of. Kept so the
  /// streaming delta path can re-derive w only around changed edges.
  std::vector<double> max_incident;
  /// The Algorithm 5 seed order: vertices by descending μ, ties by
  /// ascending id — a *unique* total order, so the streaming delta path can
  /// maintain it bit-identically by a remove-and-merge instead of a fresh
  /// O(n log n) sort, and RunNewSea can skip its per-solve sort entirely
  /// when bounds come from a cached pipeline.
  std::vector<VertexId> order;
};

/// Computes w_u, τ_u and μ_u for every vertex of `gd_plus` in O(m + n).
SmartInitBounds ComputeSmartInitBounds(const Graph& gd_plus);

/// One undirected GD+ pair whose weight changed between two graph versions
/// (0 encodes "absent on that side"; a weight can never be 0 otherwise).
struct PositivePairDelta {
  VertexId u = 0;
  VertexId v = 0;
  double old_weight = 0.0;
  double new_weight = 0.0;
};

/// \brief Maintains ComputeSmartInitBounds output across a batch of GD+
/// edge changes — the §V-D half of the streaming O(Δ) update path.
///
/// `bounds` must hold ComputeSmartInitBounds(old_gd_plus) on entry and holds
/// values *bit-identical* to ComputeSmartInitBounds(new_gd_plus) on return
/// (the property the streaming equivalence tests pin): w/μ are re-derived by
/// the exact full-computation formulas, but only over the closed
/// neighborhoods of the changed pairs, and τ is maintained by the
/// incremental core-update traversals of graph/kcore.h (falling back to one
/// full CoreNumbers pass when the batch changes many GD+ edges
/// structurally). `changes` lists every pair whose GD+ weight differs
/// between the versions, in any order, with no duplicates.
void ApplySmartInitBoundsDelta(const Graph& old_gd_plus,
                               const Graph& new_gd_plus,
                               std::span<const PositivePairDelta> changes,
                               SmartInitBounds* bounds);

/// \brief The precondition scan of every DCSGA driver: fails with
/// InvalidArgument if `gd_plus` has a negative edge weight. O(m). Callers
/// that run many solves on one validated graph do this once and set
/// DcsgaOptions::assume_nonnegative.
Status ValidateNonNegativeWeights(const Graph& gd_plus);

/// \brief One DCSGA initialization in place: Shrink (SEACD, or the replicator
/// SEA when options.shrink says so), then Refinement (Algorithm 4), from the
/// embedding `state` was reset to (ResetToVertex for a seed,
/// ResetToEmbedding for a warm start).
///
/// Adds one initialization and the descent's work counters to `*result`, and
/// stores the refined embedding as `result`'s best when its affinity strictly
/// exceeds `result->affinity`. Returns the refined affinity; `state` is left
/// on the refined embedding (a positive clique of its graph).
double DescendInPlace(AffinityState* state, const DcsgaOptions& options,
                      DcsgaResult* result);

/// \brief NewSEA (Algorithm 5): smart-ordered initializations with the
/// μ_u ≤ f(best) early stop; each initialization runs SEACD then Refinement.
///
/// `gd_plus` must have no negative edge weights (pass Graph::PositivePart()
/// of the difference graph). A graph without positive edges yields the
/// trivial single-vertex solution of affinity 0.
Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const DcsgaOptions& options = {});

/// \brief RunNewSea with precomputed smart-initialization bounds.
///
/// `bounds` must have been computed by ComputeSmartInitBounds on this exact
/// `gd_plus` (size-checked only: `mu` and the seed `order` must both have one
/// entry per vertex, else InvalidArgument). Lets callers that answer many queries on
/// one graph — MinerSession's pipeline cache — pay the O(m + n) bound
/// computation once.
Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options = {});

/// \brief RunNewSea with intra-request parallelism: the μ-ordered seed list
/// is sharded in chunks across `options.parallelism` workers on `pool`.
///
/// Each shard owns its AffinityState. A seed is pruned only against the
/// best affinity of the committed μ-order prefix (every position before it
/// descended), so every seed the sequential loop reaches is descended from;
/// the winner is then chosen by walking the positions in order with the
/// sequential rule. Affinity, support and embedding are therefore
/// bit-identical to the sequential loop for every thread count — only the
/// work counters vary with timing.
///
/// `pool` may be null: a transient pool of parallelism − 1 workers is
/// spawned for the call (the calling thread participates). A session that
/// serves many requests passes its shared pool instead.
Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options, ThreadPool* pool);

/// \brief RunNewSea that replays the seeds `memo` holds and records the
/// ones it descends (core/descent_memo.h). `memo` must belong to this
/// `gd_plus`; null, or a memo bound to other descent options, runs every
/// descent. The result is bit-identical to the memo-less call, counters
/// included.
Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options, ThreadPool* pool,
                              DescentMemo* memo);

/// \brief The SEACD+Refine / SEA+Refine baselines: one initialization per
/// non-isolated vertex of `gd_plus`, in id order, no bound (isolated
/// vertices count as pruned_seeds). Selects Shrink by `options.shrink`; runs
/// one shard whatever `options.parallelism` says.
Result<DcsgaResult> RunDcsgaAllInits(const Graph& gd_plus,
                                     const DcsgaOptions& options = {});

/// \brief RunDcsgaAllInits through a descent memo, as the memo overload of
/// RunNewSea; a replicator Shrink bypasses the memo.
Result<DcsgaResult> RunDcsgaAllInits(const Graph& gd_plus,
                                     const DcsgaOptions& options,
                                     DescentMemo* memo);

/// \brief Drops exact duplicates and cliques fully contained in another
/// collected clique (the paper's post-processing for the topic tables and
/// Fig. 3). Keeps the input order among survivors.
std::vector<CliqueRecord> FilterMaximalCliques(std::vector<CliqueRecord> in);

}  // namespace dcs

#endif  // DCS_CORE_NEWSEA_H_
