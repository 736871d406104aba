#include "core/newsea.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "core/descent_memo.h"
#include "core/kernels.h"
#include "core/refinement.h"
#include "graph/kcore.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

// Hash of a sorted vertex set, for clique deduplication.
uint64_t HashMembers(const std::vector<VertexId>& members) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (VertexId v : members) {
    uint64_t state = h ^ (static_cast<uint64_t>(v) + 0x517CC1B727220A95ull);
    h = SplitMix64(&state);
  }
  return h;
}

// Fallback solution when the graph has no positive edge: a single vertex,
// affinity 0 (§III-B).
DcsgaResult TrivialResult(const Graph& gd_plus) {
  DcsgaResult result;
  result.x = Embedding::UnitVector(gd_plus.NumVertices(), 0);
  result.support = {0};
  result.affinity = 0.0;
  return result;
}

// Number of shard workers a RunNewSea call actually uses.
size_t ResolveShards(uint32_t requested, const ThreadPool* pool) {
  if (requested == 1) return 1;
  size_t shards = requested != 0 ? requested
                  : pool != nullptr ? pool->concurrency()
                                    : ThreadPool::DefaultConcurrency();
  if (pool != nullptr) shards = std::min(shards, pool->concurrency());
  return std::max<size_t>(shards, 1);
}

// Replays a recorded descent into `run` exactly as DescendInPlace would have
// added the fresh one: one initialization, its iterations, and its embedding
// as the run's best when it strictly improves.
double ReplayDescent(const DescentRecord& record, VertexId n,
                     DcsgaResult* run) {
  ++run->initializations;
  run->cd_iterations += record.cd_iterations;
  if (record.affinity > run->affinity) {
    run->affinity = record.affinity;
    run->x = Embedding::Zeros(n);
    for (size_t i = 0; i < record.members.size(); ++i) {
      run->x.x[record.members[i]] = record.weights[i];
    }
    run->support = record.members;
  }
  return record.affinity;
}

// The refined support of `state`, ascending, and the masses of its members.
void ReadSupport(const AffinityState& state, std::vector<VertexId>* members,
                 std::vector<double>* weights) {
  members->assign(state.support().begin(), state.support().end());
  std::sort(members->begin(), members->end());
  weights->clear();
  weights->reserve(members->size());
  for (const VertexId v : *members) weights->push_back(state.x(v));
}

// The record of the descent `state` just finished, or nullopt when its
// embedding is not fully described by the refined support (an entry outside
// it is not +0.0 — never seen, but then a replay could not be bit-exact).
std::optional<DescentRecord> RecordDescent(const AffinityState& state,
                                           VertexId seed, double affinity,
                                           uint64_t cd_iterations) {
  DescentRecord record;
  record.seed = seed;
  record.affinity = affinity;
  record.cd_iterations = cd_iterations;
  record.read_set.assign(state.read_set().begin(), state.read_set().end());
  for (const VertexId v : record.read_set) {
    if (state.x(v) <= 0.0 && std::bit_cast<uint64_t>(state.x(v)) != 0) {
      return std::nullopt;
    }
  }
  ReadSupport(state, &record.members, &record.weights);
  return record;
}

// One seed's descent into `run`: replayed from `memo` when it holds the seed,
// else run on `state` (and recorded when a memo is given). Returns the
// refined affinity; `*clique` receives the refined support (ascending) and
// its masses when it is non-null.
double DescendSeed(VertexId seed, const DcsgaOptions& options,
                   DescentMemo* memo, AffinityState* state, DcsgaResult* run,
                   uint64_t* replays, CliqueRecord* clique) {
  const VertexId n = state->NumVertices();
  const DescentRecord* record = memo != nullptr ? memo->Find(seed) : nullptr;
  double affinity;
  if (record != nullptr) {
    ++*replays;
    affinity = ReplayDescent(*record, n, run);
  } else {
    state->ResetToVertex(seed);
    const uint64_t cd_before = run->cd_iterations;
    affinity = DescendInPlace(state, options, run);
    if (memo != nullptr) {
      std::optional<DescentRecord> fresh = RecordDescent(
          *state, seed, affinity, run->cd_iterations - cd_before);
      if (fresh.has_value()) record = memo->Insert(std::move(*fresh));
    }
  }
  if (clique != nullptr) {
    clique->affinity = affinity;
    if (record != nullptr) {
      clique->members = record->members;
      clique->weights = record->weights;
    } else {
      ReadSupport(*state, &clique->members, &clique->weights);
    }
  }
  return affinity;
}

// The one seed driver: NewSEA's Algorithm 5 loop and the all-inits loop.
//
// `seeds` is walked in contiguous chunks handed out through an atomic
// cursor, so every shard claims positions in increasing order. Each shard
// owns an AffinityState; a reset is exact, so each seed's descent is a pure
// function of (gd_plus, seed, options) and runs bit-identically on any
// thread. The answer is the sequential loop's: walking positions in order
// from the trivial affinity 0, the first strict improvement of the best
// reached so far wins.
//
// With `mu`, `seeds` must be in descending μ order, and the sequential loop
// stops at the first position p with μ_p ≤ best(p), the best affinity of
// the positions before p (Algorithm 5's early stop). No bound relates a
// seed's own refined affinity to its μ: Theorem 6 bounds cliques that
// contain u, and a descent from u may end on a clique without u, above μ_u.
// The stop is the paper's rule, not a consequence of such a bound, so the
// driver reproduces that rule exactly rather than relying on one.
//
//  * Pruning. The committed prefix is the longest prefix [0, c) of
//    positions whose descents have all finished; B_c = max(0, their
//    affinities). A shard deciding on a position p ≥ c (p is not finished,
//    so c ≤ p) prunes it when μ_p ≤ B_c. Safe: if the sequential loop
//    reaches p it reached all of [0, c), so best(p) ≥ B_c ≥ μ_p and it stops
//    at p; otherwise it stopped before p. Either way no position from p on
//    is reached (μ only falls), so the walk stops there. With one shard the
//    committed prefix is every position descended so far and B_c is the
//    running best, so this is Algorithm 5's loop with its work counters.
//  * The winner. After the shards finish, the sequential rule walks the
//    recorded affinities in position order; every position it reaches was
//    descended (by the pruning argument). More shards may have descended
//    positions past the sequential stop, whose affinities may exceed the
//    answer by rounding or by far; they never enter the walk. The winner's
//    embedding comes from the shard that ran it when that shard kept it as
//    its own best, and from a replay (or a fresh descent) of the winning
//    seed otherwise. Only the work counters depend on thread timing.
//
// Without `mu` every seed is descended from. Clique collection
// (options.collect_cliques) dedups per shard, so callers pass one shard; the
// harvest depends on which seeds ran. Cancellation is polled once per seed;
// a fired token aborts the whole solve, so no partial result escapes and a
// cancelled job can be resubmitted for the exact full answer.
//
// The descent memo. With a `memo` that Serves `options`, a seed it holds is
// replayed (DescendSeed) and a descended seed is recorded. A replay is exact
// when the descent, run again on the memo's current graph, would repeat bit
// for bit. A descent reads the graph only through the GD+ rows of its read
// set R (AffinityState::read_set): every other input is its seed and
// options, and every other value it computes is a function of those rows.
// The row-read sites of SEACD + Refinement are:
//  * AffinityState::SetX(v, ·) scatters row v into dx. Every SetX call sets
//    a vertex already in the support (x_v > 0) or brings it into the
//    support, so v ∈ R; a call that leaves x_v unchanged reads nothing.
//  * ComputeExpansionSet reads the rows of the support (⊆ R) and the dx
//    entries of their neighbors.
//  * SeaExpand's ω loop reads the row of every i in the expansion set Z.
//    Each such i then enters the support, or already held mass, or gets
//    x_i + τγ_i == 0 and is passed to AffinityState::NoteRowRead; so i ∈ R
//    even when it never enters the support.
//  * AffinityState::Renormalize rescales dx over the rows of the support.
//  * FindNonAdjacentPair (Refinement) reads the rows of the support.
//  * DescendToLocalKkt's EdgeWeight(i, j) reads row i, where i is in the
//    allowed set, a snapshot of the support (⊆ R).
//  * AffinityState::ResetToVertex reads the previous run's rows only to
//    write zeros, which no later value depends on.
// The remaining reads are x, dx and the support, which these rows
// determine. A streaming patch (MinerSession::PatchPipeline) splices GD+
// with CsrPatcher, which rewrites the rows of the patched pairs' endpoints
// and copies every other row verbatim; a pair whose GD+ weight is unchanged
// is re-assigned that same weight, so the only rows whose content changes
// are those of the endpoints of `positive_changes`. DescentMemo::CarriedOver
// drops every record whose R contains such an endpoint, so each kept record
// is the descent the patched graph would run. The driver itself (seed order,
// μ, the isolated-vertex filter) is recomputed on every solve and never read
// from the memo.
Result<DcsgaResult> DriveSeeds(const Graph& gd_plus,
                               std::span<const VertexId> seeds,
                               const std::vector<double>* mu,
                               const DcsgaOptions& options, size_t shards,
                               ThreadPool* pool, DescentMemo* memo) {
  if (memo != nullptr && !memo->Serves(gd_plus.NumVertices(), options)) {
    memo = nullptr;
  }
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  struct Shard {
    DcsgaResult run;  // counters, the shard's best and its cliques
    size_t best_pos = kNone;
    uint64_t replays = 0;
  };
  // Small chunks win here: a descent costs microseconds against a ~20ns
  // cursor bump, and the pruning overshoot — seeds claimed before the first
  // strong affinity is committed — is bounded by shards × chunk.
  constexpr size_t kChunkSize = 4;
  std::atomic<size_t> cursor{0};
  std::atomic<bool> exhausted{false};
  const CancelToken* cancel = options.cancel;

  // The committed prefix (see above): affinity_at[p] and descended[p] are
  // written under commit_mutex, which also advances the frontier c and
  // publishes B_c.
  std::mutex commit_mutex;
  std::vector<double> affinity_at(seeds.size(), 0.0);
  std::vector<char> descended(seeds.size(), 0);
  size_t frontier = 0;
  std::atomic<double> committed_best{0.0};  // B_c; the trivial affinity is 0

  std::vector<Shard> locals(shards);
  auto run_shard = [&](size_t shard) {
    Shard& local = locals[shard];
    AffinityState state(gd_plus);
    std::unordered_set<uint64_t> seen_cliques;
    CliqueRecord clique;
    while (!exhausted.load(std::memory_order_relaxed)) {
      const size_t begin = cursor.fetch_add(kChunkSize);
      if (begin >= seeds.size()) break;
      const size_t end = std::min(begin + kChunkSize, seeds.size());
      for (size_t pos = begin; pos < end; ++pos) {
        const VertexId seed = seeds[pos];
        if (cancel != nullptr && cancel->cancelled()) {
          exhausted.store(true, std::memory_order_relaxed);
          break;
        }
        if (mu != nullptr &&
            (*mu)[seed] <= committed_best.load(std::memory_order_relaxed)) {
          exhausted.store(true, std::memory_order_relaxed);
          break;
        }
        const double before = local.run.affinity;
        const double affinity =
            DescendSeed(seed, options, memo, &state, &local.run,
                        &local.replays,
                        options.collect_cliques ? &clique : nullptr);
        if (affinity > before) local.best_pos = pos;
        {
          std::lock_guard<std::mutex> lock(commit_mutex);
          affinity_at[pos] = affinity;
          descended[pos] = 1;
          double best = committed_best.load(std::memory_order_relaxed);
          for (; frontier < seeds.size() && descended[frontier]; ++frontier) {
            best = std::max(best, affinity_at[frontier]);
          }
          committed_best.store(best, std::memory_order_relaxed);
        }
        if (options.collect_cliques &&
            seen_cliques.insert(HashMembers(clique.members)).second) {
          local.run.cliques.push_back(clique);
        }
      }
    }
  };
  if (shards == 1) {
    run_shard(0);
  } else if (pool != nullptr) {
    pool->RunTasks(shards, run_shard);
  } else {
    ThreadPool transient(shards - 1);
    transient.RunTasks(shards, run_shard);
  }
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("DCSGA solve cancelled");
  }

  DcsgaResult result = TrivialResult(gd_plus);
  uint64_t replays = 0;
  for (Shard& local : locals) {
    result.initializations += local.run.initializations;
    result.cd_iterations += local.run.cd_iterations;
    result.replicator_sweeps += local.run.replicator_sweeps;
    result.expansion_errors += local.run.expansion_errors;
    replays += local.replays;
    std::move(local.run.cliques.begin(), local.run.cliques.end(),
              std::back_inserter(result.cliques));
  }
  // The sequential rule over the recorded affinities.
  double best = 0.0;
  size_t winner = kNone;
  for (size_t pos = 0; pos < seeds.size(); ++pos) {
    if (mu != nullptr && (*mu)[seeds[pos]] <= best) break;
    DCS_CHECK(descended[pos]) << "seed position " << pos
                              << " was pruned before the sequential stop";
    if (affinity_at[pos] > best) {
      best = affinity_at[pos];
      winner = pos;
    }
  }
  if (winner != kNone) {
    Shard* owner = nullptr;
    for (Shard& local : locals) {
      if (local.best_pos == winner) owner = &local;
    }
    DcsgaResult rerun;
    if (owner == nullptr) {
      AffinityState state(gd_plus);
      DescendSeed(seeds[winner], options, memo, &state, &rerun, &replays,
                  /*clique=*/nullptr);
    }
    DcsgaResult& source = owner != nullptr ? owner->run : rerun;
    result.affinity = best;
    result.x = std::move(source.x);
    result.support = std::move(source.support);
  }
  if (memo != nullptr) memo->CountReplays(replays);
  // Every vertex that is not a descended seed was pruned: by the bound, or
  // (all-inits) as an isolated vertex left out of `seeds`.
  result.pruned_seeds = gd_plus.NumVertices() - result.initializations;
  return result;
}

}  // namespace

Status ValidateNonNegativeWeights(const Graph& gd_plus) {
  for (VertexId u = 0; u < gd_plus.NumVertices(); ++u) {
    for (const Neighbor& nb : gd_plus.NeighborsOf(u)) {
      if (nb.weight < 0.0) {
        return Status::InvalidArgument(
            "DCSGA drivers run on GD+; found a negative edge weight");
      }
    }
  }
  return Status::OK();
}

double DescendInPlace(AffinityState* state, const DcsgaOptions& options,
                      DcsgaResult* result) {
  ++result->initializations;
  if (options.shrink == ShrinkKind::kCoordinateDescent) {
    const SeacdRunStats shrink = RunSeacdInPlace(state, options.seacd);
    result->cd_iterations += shrink.cd_iterations;
  } else {
    const SeaRunStats shrink = RunSeaInPlace(state, options.sea);
    result->replicator_sweeps += shrink.replicator_sweeps;
    result->expansion_errors += shrink.expansion_errors;
  }
  const RefinementRunStats refined =
      RefineInPlace(state, options.refinement_descent);
  result->cd_iterations += refined.cd_iterations;
  if (refined.affinity > result->affinity) {
    result->affinity = refined.affinity;
    result->x = state->ToEmbedding();
    result->support = result->x.Support();
  }
  return refined.affinity;
}

namespace {

// The scalar formulas the full pass and the delta path share; keeping them
// in one place is what makes the delta path bit-identical by construction.
double SmartBoundW(const Graph& gd_plus, const std::vector<double>& max_incident,
                   VertexId u) {
  double w = max_incident[u];
  for (const Neighbor& nb : gd_plus.NeighborsOf(u)) {
    w = std::max(w, max_incident[nb.to]);
  }
  return w;
}

double SmartBoundMu(uint32_t tau_u, double w_u) {
  if (tau_u == 0 || !std::isfinite(w_u)) {
    return 0.0;  // isolated in GD+: best possible affinity is 0
  }
  const double tau = static_cast<double>(tau_u);
  return tau * w_u / (tau + 1.0);
}

double MaxIncidentOf(const Graph& gd_plus, VertexId u) {
  double best = -std::numeric_limits<double>::infinity();
  for (const Neighbor& nb : gd_plus.NeighborsOf(u)) {
    best = std::max(best, nb.weight);
  }
  return best;
}

// The unique total seed order: descending μ, ties by ascending id. Being
// total (no equal elements) is what lets the delta path reproduce a full
// sort exactly via remove-and-merge.
bool SeedOrderLess(const std::vector<double>& mu, VertexId a, VertexId b) {
  return mu[a] != mu[b] ? mu[a] > mu[b] : a < b;
}

}  // namespace

SmartInitBounds ComputeSmartInitBounds(const Graph& gd_plus) {
  const VertexId n = gd_plus.NumVertices();
  SmartInitBounds bounds;
  // Step 1: max incident weight per vertex (kept for the delta path).
  bounds.max_incident = gd_plus.MaxIncidentWeightPerVertex();
  // Step 2: w_u = max over the closed neighborhood T_u of max_incident —
  // an upper bound on the heaviest edge with an endpoint in T_u.
  bounds.w.assign(n, -std::numeric_limits<double>::infinity());
  for (VertexId u = 0; u < n; ++u) {
    bounds.w[u] = SmartBoundW(gd_plus, bounds.max_incident, u);
  }
  // Step 3: τ_u (core numbers) and μ_u = τ_u·w_u/(τ_u+1) (Theorem 6 with the
  // clique size bound k_u ≤ τ_u + 1).
  bounds.tau = CoreNumbers(gd_plus);
  bounds.mu.assign(n, 0.0);
  for (VertexId u = 0; u < n; ++u) {
    bounds.mu[u] = SmartBoundMu(bounds.tau[u], bounds.w[u]);
  }
  // Step 4: the seed order, paid once here instead of on every solve. The
  // comparator sort is this function's hot spot on large graphs, so it runs
  // through the kernel layer (SeedOrderSort: radix over packed μ keys on
  // the dispatched path, the same order bit for bit).
  SeedOrderSort(bounds.mu, &bounds.order);
  return bounds;
}

void ApplySmartInitBoundsDelta(const Graph& old_gd_plus,
                               const Graph& new_gd_plus,
                               std::span<const PositivePairDelta> changes,
                               SmartInitBounds* bounds) {
  const VertexId n = new_gd_plus.NumVertices();
  DCS_CHECK(old_gd_plus.NumVertices() == n && bounds->mu.size() == n &&
            bounds->max_incident.size() == n)
      << "bounds were computed for a different graph";
  if (changes.empty()) return;

  // --- τ: incremental core maintenance on the structural changes ----------
  // Past this many insert/delete traversals one bucket-peeling pass over the
  // new graph is cheaper (and trivially exact), so fall back.
  constexpr size_t kMaxIncrementalCoreEdges = 32;
  std::vector<uint64_t> inserted_pairs;
  std::vector<uint64_t> removed_pairs;
  for (const PositivePairDelta& change : changes) {
    if (change.old_weight == 0.0 && change.new_weight != 0.0) {
      inserted_pairs.push_back(PackVertexPair(change.u, change.v));
    } else if (change.old_weight != 0.0 && change.new_weight == 0.0) {
      removed_pairs.push_back(PackVertexPair(change.u, change.v));
    }
  }
  std::vector<VertexId> tau_changed;
  if (inserted_pairs.size() + removed_pairs.size() >
      kMaxIncrementalCoreEdges) {
    std::vector<uint32_t> fresh = CoreNumbers(new_gd_plus);
    for (VertexId u = 0; u < n; ++u) {
      if (fresh[u] != bounds->tau[u]) tau_changed.push_back(u);
    }
    bounds->tau = std::move(fresh);
  } else if (!inserted_pairs.empty() || !removed_pairs.empty()) {
    // Replay one edge at a time against the two CSR snapshots we hold:
    // removals run on the old graph with the already-removed pairs hidden,
    // insertions then run on the new graph with the not-yet-applied
    // insertions hidden — at every step the visible adjacency is exactly
    // the intermediate graph the single-edge traversal requires.
    std::unordered_set<uint64_t> hidden;
    for (const uint64_t key : removed_pairs) {
      hidden.insert(key);
      const VertexPair pair = UnpackVertexPair(key);
      CoreNumbersAfterRemove(old_gd_plus, pair.u, pair.v, hidden,
                             &bounds->tau, &tau_changed);
    }
    hidden.clear();
    hidden.insert(inserted_pairs.begin(), inserted_pairs.end());
    for (const uint64_t key : inserted_pairs) {
      hidden.erase(key);
      const VertexPair pair = UnpackVertexPair(key);
      CoreNumbersAfterInsert(new_gd_plus, pair.u, pair.v, hidden,
                             &bounds->tau, &tau_changed);
    }
  }

  // --- max_incident: recompute at the changed pairs' endpoints ------------
  std::vector<VertexId> endpoints;
  endpoints.reserve(changes.size() * 2);
  for (const PositivePairDelta& change : changes) {
    endpoints.push_back(change.u);
    endpoints.push_back(change.v);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  std::vector<VertexId> incident_changed;
  for (const VertexId e : endpoints) {
    const double fresh = MaxIncidentOf(new_gd_plus, e);
    if (std::bit_cast<uint64_t>(fresh) !=
        std::bit_cast<uint64_t>(bounds->max_incident[e])) {
      bounds->max_incident[e] = fresh;
      incident_changed.push_back(e);
    }
  }

  // --- w: recompute over the closed neighborhoods that could have moved ---
  // w_x changes only when x's row membership changed (x is an endpoint of a
  // structural pair) or some y in x's closed neighborhood changed its
  // max_incident (x is y or one of y's current neighbors; a *former*
  // neighbor lost the edge, making x a structural endpoint — covered).
  std::vector<VertexId> w_targets = endpoints;
  for (const VertexId y : incident_changed) {
    for (const Neighbor& nb : new_gd_plus.NeighborsOf(y)) {
      w_targets.push_back(nb.to);
    }
  }
  std::sort(w_targets.begin(), w_targets.end());
  w_targets.erase(std::unique(w_targets.begin(), w_targets.end()),
                  w_targets.end());
  for (const VertexId x : w_targets) {
    bounds->w[x] = SmartBoundW(new_gd_plus, bounds->max_incident, x);
  }

  // --- μ: re-derive wherever τ or w may have moved ------------------------
  std::vector<VertexId> mu_targets = std::move(w_targets);
  mu_targets.insert(mu_targets.end(), tau_changed.begin(), tau_changed.end());
  std::sort(mu_targets.begin(), mu_targets.end());
  mu_targets.erase(std::unique(mu_targets.begin(), mu_targets.end()),
                   mu_targets.end());
  for (const VertexId x : mu_targets) {
    bounds->mu[x] = SmartBoundMu(bounds->tau[x], bounds->w[x]);
  }

  // --- seed order: remove the re-derived vertices, merge them back --------
  // The untouched vertices keep their relative order (their sort keys are
  // unchanged), and the order is a unique total order, so this remove-and-
  // merge reproduces a from-scratch sort bit for bit in O(n + c log c).
  if (bounds->order.size() == n && !mu_targets.empty()) {
    std::vector<char> is_target(n, 0);
    for (const VertexId x : mu_targets) is_target[x] = 1;
    std::vector<VertexId> reinsert = mu_targets;
    std::sort(reinsert.begin(), reinsert.end(),
              [&](VertexId a, VertexId b) {
                return SeedOrderLess(bounds->mu, a, b);
              });
    std::vector<VertexId> merged;
    merged.reserve(n);
    size_t ri = 0;
    for (const VertexId x : bounds->order) {
      if (is_target[x]) continue;  // re-inserted from `reinsert` instead
      while (ri < reinsert.size() &&
             SeedOrderLess(bounds->mu, reinsert[ri], x)) {
        merged.push_back(reinsert[ri++]);
      }
      merged.push_back(x);
    }
    while (ri < reinsert.size()) merged.push_back(reinsert[ri++]);
    bounds->order = std::move(merged);
  }
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const DcsgaOptions& options) {
  return RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus), options);
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options) {
  return RunNewSea(gd_plus, bounds, options, /*pool=*/nullptr);
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options, ThreadPool* pool) {
  return RunNewSea(gd_plus, bounds, options, pool, /*memo=*/nullptr);
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options, ThreadPool* pool,
                              DescentMemo* memo) {
  if (!options.assume_nonnegative) {
    DCS_RETURN_NOT_OK(ValidateNonNegativeWeights(gd_plus));
  }
  const VertexId n = gd_plus.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (gd_plus.NumEdges() == 0) return TrivialResult(gd_plus);
  if (bounds.mu.size() != n || bounds.order.size() != n) {
    return Status::InvalidArgument(
        "smart-init bounds were computed for a different graph");
  }
  DcsgaOptions inner = options;
  inner.shrink = ShrinkKind::kCoordinateDescent;  // NewSEA is CD by definition
  const size_t shards = options.collect_cliques
                            ? 1
                            : ResolveShards(options.parallelism, pool);
  return DriveSeeds(gd_plus, bounds.order, &bounds.mu, inner, shards, pool,
                    memo);
}

Result<DcsgaResult> RunDcsgaAllInits(const Graph& gd_plus,
                                     const DcsgaOptions& options) {
  return RunDcsgaAllInits(gd_plus, options, /*memo=*/nullptr);
}

Result<DcsgaResult> RunDcsgaAllInits(const Graph& gd_plus,
                                     const DcsgaOptions& options,
                                     DescentMemo* memo) {
  if (!options.assume_nonnegative) {
    DCS_RETURN_NOT_OK(ValidateNonNegativeWeights(gd_plus));
  }
  const VertexId n = gd_plus.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (gd_plus.NumEdges() == 0) return TrivialResult(gd_plus);
  // Isolated vertices cannot improve on the trivial solution.
  std::vector<VertexId> seeds;
  seeds.reserve(n);
  for (VertexId u = 0; u < n; ++u) {
    if (gd_plus.Degree(u) != 0) seeds.push_back(u);
  }
  return DriveSeeds(gd_plus, seeds, /*mu=*/nullptr, options, /*shards=*/1,
                    /*pool=*/nullptr, memo);
}

std::vector<CliqueRecord> FilterMaximalCliques(std::vector<CliqueRecord> in) {
  // Sort indices by size descending so that possible supersets come first.
  std::vector<size_t> order(in.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return in[a].members.size() > in[b].members.size();
  });
  // For every kept clique, index it by its smallest member: any superset of
  // a clique C contains C's first vertex, so looking up that one bucket
  // suffices for the subset test. The index is a flat epoch-stamped vector
  // over the vertex range rather than a hash map: bucket lookups become one
  // array access, and the scratch persists across calls (thread_local, like
  // AffinityState::Renormalize's visited set) — a stale bucket (stamp !=
  // current epoch) reads as empty, so repeated top-k harvests pay neither
  // rehashing nor O(n) clearing.
  VertexId max_vertex = 0;
  for (const CliqueRecord& record : in) {
    for (VertexId v : record.members) max_vertex = std::max(max_vertex, v);
  }
  thread_local std::vector<std::vector<size_t>> buckets;
  thread_local std::vector<uint32_t> bucket_epoch;
  thread_local uint32_t epoch = 0;
  if (++epoch == 0) {
    // Stamp wrap-around: every stale stamp could alias the fresh epoch, so
    // reset once per 2^32 calls.
    std::fill(bucket_epoch.begin(), bucket_epoch.end(), 0u);
    epoch = 1;
  }
  const uint32_t kEpoch = epoch;
  if (buckets.size() <= max_vertex) {
    buckets.resize(static_cast<size_t>(max_vertex) + 1);
    bucket_epoch.resize(static_cast<size_t>(max_vertex) + 1, 0);
  }
  std::vector<char> kept(in.size(), 0);
  for (size_t idx : order) {
    const std::vector<VertexId>& members = in[idx].members;
    bool subsumed = false;
    if (!members.empty()) {
      // One bucket is enough: supersets contain every member, so checking
      // the first member's bucket covers them all.
      const VertexId first = members.front();
      if (bucket_epoch[first] == kEpoch) {
        for (size_t candidate : buckets[first]) {
          const std::vector<VertexId>& big = in[candidate].members;
          if (big.size() < members.size()) continue;
          if (std::includes(big.begin(), big.end(), members.begin(),
                            members.end())) {
            subsumed = true;
            break;
          }
        }
      }
    }
    if (!subsumed) {
      kept[idx] = 1;
      for (VertexId v : in[idx].members) {
        if (bucket_epoch[v] != kEpoch) {
          bucket_epoch[v] = kEpoch;
          buckets[v].clear();
        }
        buckets[v].push_back(idx);
      }
    }
  }
  std::vector<CliqueRecord> out;
  out.reserve(in.size());
  for (size_t idx = 0; idx < in.size(); ++idx) {
    if (kept[idx]) out.push_back(std::move(in[idx]));
  }
  return out;
}

}  // namespace dcs
