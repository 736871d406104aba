// Naive references for the DCSGA seed drivers: the textbook sequential
// Algorithm 5 loop (seeds in μ order, SEACD then Refinement from each, stop
// at the first seed with μ_u ≤ f(best), Theorem 6) and the all-inits loop of
// the §VI-A baselines (every non-isolated vertex in id order, no bound). The
// library's one-shard seed driver must reproduce them bit for bit: the same
// answer, the same work counters and the same clique records in the same
// order.

#ifndef DCS_TESTS_ORACLES_NAIVE_NEWSEA_H_
#define DCS_TESTS_ORACLES_NAIVE_NEWSEA_H_

#include <algorithm>
#include <set>
#include <vector>

#include "core/embedding.h"
#include "core/newsea.h"
#include "core/refinement.h"
#include "core/sea.h"
#include "core/seacd.h"
#include "graph/graph.h"

namespace dcs::testing {

/// One initialization from e_seed on `state`: Shrink (by options.shrink),
/// then Refinement. Adds the work counters to `result`, keeps the strictly
/// better embedding, and (when collecting) appends the clique reached unless
/// an earlier seed already reached the same support.
inline void NaiveDescendFromSeed(VertexId seed, const DcsgaOptions& options,
                                 AffinityState* state, DcsgaResult* result,
                                 std::set<std::vector<VertexId>>* seen) {
  ++result->initializations;
  state->ResetToVertex(seed);
  if (options.shrink == ShrinkKind::kCoordinateDescent) {
    const SeacdRunStats stats = RunSeacdInPlace(state, options.seacd);
    result->cd_iterations += stats.cd_iterations;
  } else {
    const SeaRunStats stats = RunSeaInPlace(state, options.sea);
    result->replicator_sweeps += stats.replicator_sweeps;
    result->expansion_errors += stats.expansion_errors;
  }
  const RefinementRunStats refined =
      RefineInPlace(state, options.refinement_descent);
  result->cd_iterations += refined.cd_iterations;
  if (refined.affinity > result->affinity) {
    result->affinity = refined.affinity;
    result->x = state->ToEmbedding();
    result->support = result->x.Support();
  }
  if (options.collect_cliques) {
    std::vector<VertexId> members(state->support().begin(),
                                  state->support().end());
    std::sort(members.begin(), members.end());
    if (seen->insert(members).second) {
      CliqueRecord record;
      for (VertexId v : members) record.weights.push_back(state->x(v));
      record.members = std::move(members);
      record.affinity = refined.affinity;
      result->cliques.push_back(std::move(record));
    }
  }
}

/// The trivial solution every driver starts from: e_0, affinity 0.
inline DcsgaResult NaiveTrivialResult(const Graph& gd_plus) {
  DcsgaResult result;
  result.x = Embedding::UnitVector(gd_plus.NumVertices(), 0);
  result.support = {0};
  return result;
}

/// Sequential NewSEA: `bounds.order` walked with the μ_u ≤ f(best) break.
/// Shrink is always coordinate descent. `gd_plus` must have an edge.
inline DcsgaResult NaiveNewSea(const Graph& gd_plus,
                               const SmartInitBounds& bounds,
                               DcsgaOptions options) {
  options.shrink = ShrinkKind::kCoordinateDescent;
  DcsgaResult result = NaiveTrivialResult(gd_plus);
  AffinityState state(gd_plus);
  std::set<std::vector<VertexId>> seen;
  for (VertexId u : bounds.order) {
    if (bounds.mu[u] <= result.affinity) break;
    NaiveDescendFromSeed(u, options, &state, &result, &seen);
  }
  result.pruned_seeds = bounds.order.size() - result.initializations;
  return result;
}

/// All-inits: every non-isolated vertex in id order; isolated vertices count
/// as pruned. `gd_plus` must have an edge.
inline DcsgaResult NaiveAllInits(const Graph& gd_plus,
                                 const DcsgaOptions& options) {
  DcsgaResult result = NaiveTrivialResult(gd_plus);
  AffinityState state(gd_plus);
  std::set<std::vector<VertexId>> seen;
  for (VertexId u = 0; u < gd_plus.NumVertices(); ++u) {
    if (gd_plus.Degree(u) == 0) {
      ++result.pruned_seeds;
      continue;
    }
    NaiveDescendFromSeed(u, options, &state, &result, &seen);
  }
  return result;
}

}  // namespace dcs::testing

#endif  // DCS_TESTS_ORACLES_NAIVE_NEWSEA_H_
