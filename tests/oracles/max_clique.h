// Exact maximum clique via branch-and-bound with greedy-coloring bounds
// (Tomita-style; the family of algorithms the paper cites as Rossi et
// al. [22] in §V-D).
//
// A test oracle: §V-D's smart initialization bounds the largest clique
// containing u by τ_u + 1, and §V-C discusses why max-clique algorithms do
// NOT solve weighted DCSGA — both claims are property-tested against this
// exact solver. Edge weights are ignored (cliques are a
// structural notion).

#ifndef DCS_TESTS_ORACLES_MAX_CLIQUE_H_
#define DCS_TESTS_ORACLES_MAX_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// Options for the branch-and-bound search.
struct MaxCliqueOptions {
  /// Abort with NotConverged after this many search-tree nodes (keeps
  /// adversarial inputs from hanging tests).
  uint64_t max_nodes = 50'000'000;
};

/// Result of a successful search.
struct MaxCliqueResult {
  std::vector<VertexId> members;  ///< a maximum clique, ascending ids
  uint64_t nodes_expanded = 0;
};

/// \brief Finds a maximum clique of `graph` (exact). Empty graph yields an
/// empty clique; otherwise at least one vertex is returned.
Result<MaxCliqueResult> FindMaxClique(const Graph& graph,
                                      const MaxCliqueOptions& options = {});

}  // namespace dcs

#endif  // DCS_TESTS_ORACLES_MAX_CLIQUE_H_
