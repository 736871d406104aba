// Mining multiple density contrast subgraphs — the paper's §VII future-work
// item ("our methods only mine one DCS with the greatest density difference;
// how to mine multiple subgraphs with big density difference is another
// interesting direction").
//
// Two natural schemes, both built on the single-DCS solvers:
//  * DCSAD: iterative peeling — find the best subgraph with DCSGreedy,
//    remove its vertices from the difference graph, repeat. Each round's
//    result is vertex-disjoint from the previous ones.
//  * DCSGA: harvest — run the all-initializations driver once, collect every
//    distinct positive clique, filter to maximal cliques, rank by affinity
//    difference and (optionally) enforce vertex-disjointness greedily. This
//    is exactly how the paper's own Table V is produced.

#ifndef DCS_CORE_TOPK_H_
#define DCS_CORE_TOPK_H_

#include <cstdint>
#include <vector>

#include "core/dcs_greedy.h"
#include "core/newsea.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// Options for iterative DCSAD peeling.
struct TopkDcsadOptions {
  uint32_t k = 5;
  /// Stop early once the best remaining density drops to or below this.
  double min_density = 0.0;
};

/// One ranked DCSAD subgraph.
struct RankedDcsad {
  std::vector<VertexId> subset;
  double density = 0.0;      ///< ρ_D in the *original* difference graph
  double ratio_bound = 0.0;  ///< β of the round that produced it
};

/// \brief Mines up to k vertex-disjoint average-degree contrast subgraphs by
/// iterated DCSGreedy + vertex removal. Results are ordered by discovery
/// round (non-increasing density in practice, though peeling does not
/// guarantee monotonicity).
Result<std::vector<RankedDcsad>> MineTopKDcsad(
    const Graph& gd, const TopkDcsadOptions& options = {});

/// Options for the DCSGA harvest.
struct TopkDcsgaOptions {
  uint32_t k = 5;
  /// Require the reported cliques to be pairwise vertex-disjoint.
  bool disjoint = true;
  /// Drop cliques below this affinity difference.
  double min_affinity = 0.0;
  /// Inner solver options (collect_cliques is forced on).
  DcsgaOptions solver;
};

/// \brief Mines up to k positive-clique affinity contrast subgraphs from the
/// all-initializations run on GD+. Ranked by affinity difference.
Result<std::vector<CliqueRecord>> MineTopKDcsga(
    const Graph& gd_plus, const TopkDcsgaOptions& options = {});

/// \brief MineTopKDcsga whose harvest replays and records seed descents
/// through `memo` (see RunDcsgaAllInits); bit-identical to the memo-less
/// call.
Result<std::vector<CliqueRecord>> MineTopKDcsga(
    const Graph& gd_plus, const TopkDcsgaOptions& options, DescentMemo* memo);

}  // namespace dcs

#endif  // DCS_CORE_TOPK_H_
