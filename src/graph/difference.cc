#include "graph/difference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph_builder.h"

namespace dcs {

Result<Graph> BuildDifferenceGraph(const Graph& g1, const Graph& g2,
                                   double alpha) {
  if (g1.NumVertices() != g2.NumVertices()) {
    return Status::InvalidArgument(
        "difference graph requires equal vertex sets: n1=" +
        std::to_string(g1.NumVertices()) +
        " n2=" + std::to_string(g2.NumVertices()));
  }
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be finite and positive");
  }
  const VertexId n = g1.NumVertices();
  // Single merge pass over the two sorted rows of every vertex, emitting the
  // symmetric CSR directly. Both directions of an edge compute d from the
  // same operand bits (undirected rows store the same weight both ways), so
  // the rows come out mirror-identical. Pairs with |d| <= kDefaultZeroEps are
  // dropped: exact cancellations and the tiny residues of non-integral ones.
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<VertexId> targets;
  std::vector<double> weights;
  targets.reserve(g1.targets_.size() + g2.targets_.size());
  weights.reserve(targets.capacity());
  for (VertexId u = 0; u < n; ++u) {
    const auto row1 = g1.NeighborsOf(u);
    const auto row2 = g2.NeighborsOf(u);
    size_t i = 0, j = 0;
    while (i < row1.size() || j < row2.size()) {
      VertexId v;
      double d;
      if (j == row2.size() || (i < row1.size() && row1[i].to < row2[j].to)) {
        v = row1[i].to;
        d = -alpha * row1[i].weight;
        ++i;
      } else if (i == row1.size() || row2[j].to < row1[i].to) {
        v = row2[j].to;
        d = row2[j].weight;
        ++j;
      } else {
        v = row1[i].to;
        d = row2[j].weight - alpha * row1[i].weight;
        ++i;
        ++j;
      }
      if (!std::isfinite(d)) {
        return Status::InvalidArgument("non-finite edge weight");
      }
      if (std::fabs(d) > kDefaultZeroEps) {
        targets.push_back(v);
        weights.push_back(d);
      }
    }
    offsets[u + 1] = targets.size();
  }
  targets.shrink_to_fit();
  weights.shrink_to_fit();
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

Status DiscretizeSpec::Validate() const {
  if (!(strong_neg < 0.0 && 0.0 < weak_pos && weak_pos <= strong_pos)) {
    return Status::InvalidArgument(
        "DiscretizeSpec thresholds must satisfy strong_neg < 0 < weak_pos <= "
        "strong_pos");
  }
  if (!(0.0 < level_one && level_one <= level_two)) {
    return Status::InvalidArgument(
        "DiscretizeSpec levels must satisfy 0 < level_one <= level_two");
  }
  return Status::OK();
}

double DiscretizeSpec::Map(double d) const {
  if (d >= strong_pos) return level_two;
  if (d >= weak_pos) return level_one;
  if (d <= strong_neg) return -level_two;
  if (d < 0.0) return -level_one;
  return 0.0;
}

Result<double> AlphaUpperBound(const Graph& g1, const Graph& g2) {
  if (g1.NumVertices() != g2.NumVertices()) {
    return Status::InvalidArgument("AlphaUpperBound requires equal vertex sets");
  }
  double best = 0.0;
  for (VertexId u = 0; u < g2.NumVertices(); ++u) {
    for (const Neighbor& nb : g2.NeighborsOf(u)) {
      if (u >= nb.to || nb.weight <= 0.0) continue;
      const double w1 = g1.EdgeWeight(u, nb.to);
      if (w1 <= 0.0) {
        return std::numeric_limits<double>::infinity();
      }
      best = std::max(best, nb.weight / w1);
    }
  }
  return best;
}

Result<Graph> DiscretizeWeights(const Graph& gd, const DiscretizeSpec& spec) {
  DCS_RETURN_NOT_OK(spec.Validate());
  const VertexId n = gd.NumVertices();
  // One pass maps every stored entry and compacts the survivors straight
  // into CSR. Both directions of an edge map the same weight bits to the
  // same level, so the rows stay mirror-symmetric; a level that maps to zero
  // (or below kDefaultZeroEps) drops the edge.
  std::vector<size_t> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<VertexId> targets;
  std::vector<double> weights;
  targets.reserve(gd.targets_.size());
  weights.reserve(gd.weights_.size());
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : gd.NeighborsOf(u)) {
      const double mapped = spec.Map(nb.weight);
      if (std::fabs(mapped) > kDefaultZeroEps) {
        targets.push_back(nb.to);
        weights.push_back(mapped);
      }
    }
    offsets[u + 1] = targets.size();
  }
  targets.shrink_to_fit();
  weights.shrink_to_fit();
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

}  // namespace dcs
