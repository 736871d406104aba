// Brute-force exact solvers for tiny instances — the test oracles.
//
// ExactDcsadBruteForce enumerates every non-empty vertex subset, so it is
// limited to ~24 vertices; ExactDcsgaBruteForce enumerates subsets that form
// positive cliques (Theorem 5 guarantees an optimal DCSGA solution supported
// on a positive clique) and solves the interior KKT system on each.

#ifndef DCS_TESTS_ORACLES_EXACT_H_
#define DCS_TESTS_ORACLES_EXACT_H_

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// Exact DCSAD optimum on a (possibly signed) difference graph.
struct ExactDcsadResult {
  std::vector<VertexId> subset;
  double density = 0.0;  ///< max_S ρ_D(S), Table I doubled convention
};

/// \brief Enumerates all non-empty subsets. Fails with InvalidArgument when
/// the graph has more than `max_vertices` vertices (default 24).
Result<ExactDcsadResult> ExactDcsadBruteForce(const Graph& gd,
                                              int max_vertices = 24);

/// Exact DCSGA optimum.
struct ExactDcsgaResult {
  /// Optimal embedding over the full vertex set (entries sum to 1).
  std::vector<double> x;
  /// Support of x — always a positive clique of gd (Theorem 5).
  std::vector<VertexId> support;
  double affinity = 0.0;  ///< max_x xᵀDx
};

/// \brief Enumerates positive-clique supports and maximizes the quadratic on
/// each via the interior KKT linear system, falling back to sub-cliques when
/// the interior solution leaves the simplex. Fails with InvalidArgument when
/// the graph has more than `max_vertices` vertices (default 20).
Result<ExactDcsgaResult> ExactDcsgaBruteForce(const Graph& gd,
                                              int max_vertices = 20);

}  // namespace dcs

#endif  // DCS_TESTS_ORACLES_EXACT_H_
