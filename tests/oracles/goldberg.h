// Goldberg's exact maximum-average-degree subgraph via max-flow.
//
// §II of the paper cites Goldberg [12] as the polynomial exact algorithm for
// the traditional (non-negative weights) densest-subgraph problem. The tests
// use it as an exact oracle against which the Charikar peel (factor 2) and
// the DCSGreedy candidates are property-tested.
//
// The reduction, for a density guess g (in the Table I doubled convention,
// ρ(S) = W(S)/|S| with W counting each edge twice):
//   source s -> v  with capacity  degw(v)   (weighted degree)
//   v -> sink t    with capacity  g
//   u <-> v        with capacity  w(u,v) each direction
// A minimum cut has value  Σ degw − max_S (2·w_in(S) − g·|S|),
// so min-cut < Σ degw  iff  some S has ρ(S) = 2·w_in(S)/|S| > g.
// Binary search over g pins the optimum to any desired precision.

#ifndef DCS_TESTS_ORACLES_GOLDBERG_H_
#define DCS_TESTS_ORACLES_GOLDBERG_H_

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// Result of the exact densest-subgraph computation.
struct DensestSubgraphResult {
  std::vector<VertexId> subset;  ///< optimal S (non-empty for m >= 1)
  double density = 0.0;          ///< ρ(S) = W(S)/|S|, doubled convention
};

/// \brief Exact maximum ρ(S) over non-empty S for a graph with strictly
/// positive edge weights.
///
/// \param tolerance absolute precision of the binary search on density.
/// Fails with InvalidArgument if any edge weight is <= 0. A graph with no
/// edges yields a singleton subset of density 0.
Result<DensestSubgraphResult> GoldbergDensestSubgraph(const Graph& graph,
                                                      double tolerance = 1e-7);

}  // namespace dcs

#endif  // DCS_TESTS_ORACLES_GOLDBERG_H_
