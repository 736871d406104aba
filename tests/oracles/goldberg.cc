#include "oracles/goldberg.h"

#include <algorithm>

#include "oracles/maxflow.h"
#include "graph/stats.h"

namespace dcs {
namespace {

// Runs one min-cut probe at density guess g; returns the source-side vertex
// set (excluding s), which is non-empty iff some subset beats density g.
std::vector<VertexId> ProbeDensity(const Graph& graph, double g) {
  const VertexId n = graph.NumVertices();
  const uint32_t source = n;
  const uint32_t sink = n + 1;
  MaxFlow flow(n + 2);
  for (VertexId v = 0; v < n; ++v) {
    const double degw = graph.WeightedDegree(v);
    flow.AddArc(source, v, degw);
    flow.AddArc(v, sink, g);
    for (const Neighbor& nb : graph.NeighborsOf(v)) {
      // Each undirected edge contributes one arc per direction; we add v->nb
      // here and nb->v when the loop reaches nb.
      flow.AddArc(v, nb.to, nb.weight);
    }
  }
  flow.Solve(source, sink);
  const std::vector<char> side = flow.MinCutSourceSide(source);
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < n; ++v) {
    if (side[v]) subset.push_back(v);
  }
  return subset;
}

}  // namespace

Result<DensestSubgraphResult> GoldbergDensestSubgraph(const Graph& graph,
                                                      double tolerance) {
  if (tolerance <= 0.0) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  const VertexId n = graph.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  double max_weight = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    for (const Neighbor& nb : graph.NeighborsOf(v)) {
      if (nb.weight <= 0.0) {
        return Status::InvalidArgument(
            "GoldbergDensestSubgraph requires positive edge weights");
      }
      max_weight = std::max(max_weight, nb.weight);
    }
  }
  DensestSubgraphResult best;
  best.subset = {0};
  best.density = 0.0;
  if (graph.NumEdges() == 0) return best;

  // Densities live in (0, (n-1)·max_weight]. Invariant: some subset beats
  // `lo` (witnessed by best.subset); no subset beats `hi`.
  double lo = 0.0;
  double hi = static_cast<double>(n - 1) * max_weight + tolerance;
  {
    std::vector<VertexId> witness = ProbeDensity(graph, lo);
    if (witness.empty()) return best;  // defensive; m >= 1 implies ρ > 0 exists
    best.subset = std::move(witness);
  }
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    std::vector<VertexId> witness = ProbeDensity(graph, mid);
    if (!witness.empty()) {
      lo = mid;
      best.subset = std::move(witness);
    } else {
      hi = mid;
    }
  }
  best.density = AverageDegreeDensity(graph, best.subset);
  return best;
}

}  // namespace dcs
