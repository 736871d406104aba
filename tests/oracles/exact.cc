#include "oracles/exact.h"

#include <string>

#include "oracles/dense_solver.h"

namespace dcs {
namespace {

// Dense symmetric weight matrix of a tiny graph (zero diagonal).
std::vector<std::vector<double>> DenseWeights(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) w[u][nb.to] = nb.weight;
  }
  return w;
}

}  // namespace

Result<ExactDcsadResult> ExactDcsadBruteForce(const Graph& gd,
                                              int max_vertices) {
  const VertexId n = gd.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > static_cast<VertexId>(max_vertices)) {
    return Status::InvalidArgument("graph too large for brute force: n=" +
                                   std::to_string(n));
  }
  const auto w = DenseWeights(gd);
  ExactDcsadResult best;
  best.subset = {0};
  best.density = 0.0;  // a singleton always achieves 0
  const uint32_t limit = 1u << n;
  for (uint32_t mask = 1; mask < limit; ++mask) {
    double twice_internal_weight = 0.0;
    int size = 0;
    for (VertexId u = 0; u < n; ++u) {
      if (!(mask & (1u << u))) continue;
      ++size;
      for (VertexId v = static_cast<VertexId>(u + 1); v < n; ++v) {
        if (mask & (1u << v)) twice_internal_weight += 2.0 * w[u][v];
      }
    }
    const double density = twice_internal_weight / static_cast<double>(size);
    if (density > best.density) {
      best.density = density;
      best.subset.clear();
      for (VertexId u = 0; u < n; ++u) {
        if (mask & (1u << u)) best.subset.push_back(u);
      }
    }
  }
  return best;
}

Result<ExactDcsgaResult> ExactDcsgaBruteForce(const Graph& gd,
                                              int max_vertices) {
  const VertexId n = gd.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > static_cast<VertexId>(max_vertices)) {
    return Status::InvalidArgument("graph too large for brute force: n=" +
                                   std::to_string(n));
  }
  const auto w = DenseWeights(gd);
  ExactDcsgaResult best;
  best.x.assign(n, 0.0);
  best.x[0] = 1.0;
  best.support = {0};
  best.affinity = 0.0;
  const uint32_t limit = 1u << n;
  for (uint32_t mask = 1; mask < limit; ++mask) {
    std::vector<VertexId> members;
    for (VertexId u = 0; u < n; ++u) {
      if (mask & (1u << u)) members.push_back(u);
    }
    if (members.size() < 2) continue;
    // Positive-clique filter (Theorem 5: some optimum is a positive clique).
    bool positive_clique = true;
    for (size_t a = 0; a < members.size() && positive_clique; ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        if (w[members[a]][members[b]] <= 0.0) {
          positive_clique = false;
          break;
        }
      }
    }
    if (!positive_clique) continue;
    DenseMatrix a(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = 0; j < members.size(); ++j) {
        a.At(i, j) = w[members[i]][members[j]];
      }
    }
    Result<std::vector<double>> interior = InteriorSimplexMaximizer(a);
    // Non-interior or singular supports are covered by their sub-cliques,
    // which this enumeration also visits.
    if (!interior.ok()) continue;
    const std::vector<double>& xs = interior.value();
    double affinity = 0.0;
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = 0; j < members.size(); ++j) {
        affinity += xs[i] * xs[j] * a.At(i, j);
      }
    }
    if (affinity > best.affinity) {
      best.affinity = affinity;
      best.support = members;
      best.x.assign(n, 0.0);
      for (size_t i = 0; i < members.size(); ++i) best.x[members[i]] = xs[i];
    }
  }
  return best;
}

}  // namespace dcs
