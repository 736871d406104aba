// Greedy peeling (Algorithm 1 of the paper; Charikar's greedy generalized to
// arbitrary — possibly negative — edge weights).
//
// Repeatedly removes the vertex of minimum current weighted degree and
// returns the best-density prefix ρ(S) = W(S)/|S| (Table I convention: W(S)
// is the total induced degree, every undirected edge counted twice).
//
// On non-negative weights this is Charikar's 2-approximation of the densest
// subgraph; on signed difference graphs it is one of the three candidate
// generators inside DCSGreedy (Algorithm 2) — §IV shows no polynomial
// algorithm can do better than O(n^{1−ε}) there.
//
// Victim order: the minimum current weighted degree, ties broken towards the
// lowest vertex id — keys compare as (value, id).
//
// Complexity: O((n + m) log n) using an indexed 4-ary min-heap over current
// degrees.

#ifndef DCS_DENSEST_PEEL_H_
#define DCS_DENSEST_PEEL_H_

#include <vector>

#include "graph/graph.h"

namespace dcs {

/// Result of a greedy peel.
struct PeelResult {
  /// Vertex set achieving the best density seen during peeling (never empty
  /// for a non-empty graph; a single vertex has density 0).
  std::vector<VertexId> subset;
  /// ρ(subset) = W(subset)/|subset|.
  double density = 0.0;
  /// Vertices in removal order (first removed first); useful for tests.
  std::vector<VertexId> peel_order;
};

/// Runs Algorithm 1 on `graph`. For an empty vertex set returns an empty
/// result with density 0.
PeelResult GreedyPeel(const Graph& graph);

}  // namespace dcs

#endif  // DCS_DENSEST_PEEL_H_
