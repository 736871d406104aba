#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/hash.h"
#include "util/logging.h"

namespace dcs {

Graph::Graph(VertexId n) : offsets_(static_cast<size_t>(n) + 1, 0) {}

double Graph::WeightedDegree(VertexId u) const {
  double total = 0.0;
  for (const Neighbor& nb : NeighborsOf(u)) total += nb.weight;
  return total;
}

double Graph::EdgeWeight(VertexId u, VertexId v) const {
  DCS_CHECK(u < NumVertices() && v < NumVertices());
  const auto first = targets_.begin() + offsets_[u];
  const auto last = targets_.begin() + offsets_[u + 1];
  const auto it = std::lower_bound(first, last, v);
  if (it == last || *it != v) return 0.0;
  return weights_[it - targets_.begin()];
}

std::vector<Edge> Graph::UndirectedEdges() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Neighbor& nb : NeighborsOf(u)) {
      if (u < nb.to) edges.push_back(Edge{u, nb.to, nb.weight});
    }
  }
  return edges;
}

WeightStats Graph::ComputeWeightStats() const {
  WeightStats stats;
  double total = 0.0;
  size_t count = 0;
  bool first = true;
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Neighbor& nb : NeighborsOf(u)) {
      if (u >= nb.to) continue;
      if (first) {
        stats.max_weight = stats.min_weight = nb.weight;
        first = false;
      } else {
        stats.max_weight = std::max(stats.max_weight, nb.weight);
        stats.min_weight = std::min(stats.min_weight, nb.weight);
      }
      if (nb.weight > 0) ++stats.num_positive_edges;
      if (nb.weight < 0) ++stats.num_negative_edges;
      total += nb.weight;
      ++count;
    }
  }
  stats.mean_weight = count == 0 ? 0.0 : total / static_cast<double>(count);
  return stats;
}

std::vector<double> Graph::MaxIncidentWeightPerVertex() const {
  std::vector<double> best(NumVertices(),
                           -std::numeric_limits<double>::infinity());
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Neighbor& nb : NeighborsOf(u)) {
      best[u] = std::max(best[u], nb.weight);
    }
  }
  return best;
}

Graph Graph::PositivePart() const {
  const VertexId n = NumVertices();
  // Branchless single-pass compaction: every half is written, the write
  // cursor only advances past the kept ones, so rows stay sorted.
  std::vector<size_t> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<VertexId> targets(targets_.size());
  std::vector<double> weights(weights_.size());
  size_t out = 0;
  for (VertexId u = 0; u < n; ++u) {
    const size_t end = offsets_[u + 1];
    for (size_t i = offsets_[u]; i < end; ++i) {
      const double w = weights_[i];
      targets[out] = targets_[i];
      weights[out] = w;
      out += w > 0.0 ? 1 : 0;
    }
    offsets[u + 1] = out;
  }
  targets.resize(out);
  targets.shrink_to_fit();
  weights.resize(out);
  weights.shrink_to_fit();
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

Graph Graph::WeightsClampedAbove(double cap) const {
  DCS_CHECK(cap > 0.0) << "clamp cap must be positive, got " << cap;
  Graph out = *this;
  for (double& w : out.weights_) w = std::min(w, cap);
  return out;
}

uint64_t Graph::UndirectedEdgeHash(VertexId u, VertexId v, double weight) {
  // Each edge gets a full two-step splitmix chain of its own, so the
  // wrapping sum over edges in ContentAccumulator keeps the 2^-64-grade
  // collision behavior the pipeline cache accepts as content equality.
  const uint64_t h = MixFingerprint(0x6463735f65646765ull,  // "dcs_edge"
                                    (static_cast<uint64_t>(u) << 32) | v);
  return MixFingerprint(h, std::bit_cast<uint64_t>(weight));
}

uint64_t Graph::ContentAccumulator() const {
  // A commutative (wrapping-sum) combination: row boundaries are implied by
  // the canonical (u < v) endpoint pair inside each edge hash, and the sum
  // form is what lets CsrPatcher maintain the fingerprint in O(Δ).
  uint64_t acc = 0;
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (const Neighbor& nb : NeighborsOf(u)) {
      if (u < nb.to) acc += UndirectedEdgeHash(u, nb.to, nb.weight);
    }
  }
  return acc;
}

uint64_t Graph::FingerprintFromAccumulator(VertexId n, uint64_t accumulator) {
  const uint64_t h = MixFingerprint(0x6463735f67726170ull,  // "dcs_grap"
                                    n);
  return MixFingerprint(h, accumulator);
}

uint64_t Graph::ContentFingerprint() const {
  return FingerprintFromAccumulator(NumVertices(), ContentAccumulator());
}

std::string Graph::DebugString() const {
  const WeightStats stats = ComputeWeightStats();
  std::ostringstream os;
  os << "Graph(n=" << NumVertices() << ", m=" << NumEdges()
     << ", m+=" << stats.num_positive_edges
     << ", m-=" << stats.num_negative_edges << ")";
  return os.str();
}

}  // namespace dcs
