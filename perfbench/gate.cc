#include "gate.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "api/job_journal.h"

namespace perfbench {
namespace {

using dcs::VertexId;

// Relative tolerance for recomputed sums: the library and the gate add the
// same terms in different orders.
constexpr double kRelTol = 1e-9;

bool Close(double a, double b, double scale) {
  return std::fabs(a - b) <= kRelTol * std::max(1.0, scale);
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool SortedInRange(const std::vector<VertexId>& vertices, VertexId n) {
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] >= n) return false;
    if (i > 0 && vertices[i - 1] >= vertices[i]) return false;
  }
  return true;
}

void CheckAverageDegree(const dcs::RankedSubgraph& s, const DifferenceOracle& d,
                        const std::string& where,
                        std::vector<std::string>* violations) {
  if (s.vertices.empty() || !SortedInRange(s.vertices, d.num_vertices())) {
    violations->push_back(where + ": DCSAD subset empty, unsorted or out of range");
    return;
  }
  const double density = d.Density(s.vertices);
  if (!Close(density, s.value, std::fabs(s.value))) {
    violations->push_back(where + ": DCSAD value " + Fmt(s.value) +
                          " but recomputed rho_D(S) = " + Fmt(density));
  }
  if (!(s.ratio_bound >= 1.0) || !std::isfinite(s.ratio_bound)) {
    violations->push_back(where + ": Theorem 2 ratio bound " +
                          Fmt(s.ratio_bound) + " < 1");
  }
}

void CheckAffinity(const dcs::RankedSubgraph& s, const DifferenceOracle& d,
                   const std::vector<VertexId>* planted, bool top,
                   const std::string& where,
                   std::vector<std::string>* violations) {
  const size_t k = s.vertices.size();
  if (k == 0 || !SortedInRange(s.vertices, d.num_vertices()) ||
      s.weights.size() != k) {
    violations->push_back(where + ": DCSGA support empty, unsorted, out of "
                                  "range or without matching weights");
    return;
  }
  if (!s.positive_clique) {
    violations->push_back(where + ": DCSGA answer not flagged a positive clique");
  }
  double weight_sum = 0.0;
  for (double w : s.weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      violations->push_back(where + ": DCSGA weight " + Fmt(w) + " not in (0,1]");
    }
    weight_sum += w;
  }
  if (!Close(weight_sum, 1.0, 1.0)) {
    violations->push_back(where + ": DCSGA weights sum to " + Fmt(weight_sum));
  }
  double affinity = 0.0;
  double magnitude = 0.0;
  bool clique = true;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const double w = d.Weight(s.vertices[i], s.vertices[j]);
      clique &= w > 0.0;
      const double term = 2.0 * s.weights[i] * s.weights[j] * w;
      affinity += term;
      magnitude += std::fabs(term);
    }
  }
  if (!clique && k > 1) {
    violations->push_back(where + ": DCSGA support is not a positive clique of "
                                  "GD (Theorem 5)");
  }
  if (!Close(affinity, s.value, magnitude)) {
    violations->push_back(where + ": DCSGA value " + Fmt(s.value) +
                          " but recomputed x'Dx = " + Fmt(affinity));
  }
  if (top && planted != nullptr &&
      !std::includes(planted->begin(), planted->end(), s.vertices.begin(),
                     s.vertices.end())) {
    violations->push_back(where + ": top DCSGA support leaves the planted "
                                  "conflicting group");
  }
}

}  // namespace

DifferenceOracle::DifferenceOracle(const dcs::Graph& g1, const dcs::Graph& g2,
                                   double alpha, const WeightOverlay* overlay1,
                                   const WeightOverlay* overlay2)
    : g1_(g1), g2_(g2), alpha_(alpha), overlay1_(overlay1),
      overlay2_(overlay2) {}

double DifferenceOracle::Weight(VertexId u, VertexId v) const {
  auto side = [u, v](const dcs::Graph& g, const WeightOverlay* overlay) {
    if (overlay != nullptr) {
      const auto it = overlay->find(dcs::PackVertexPair(u, v));
      if (it != overlay->end()) return it->second;
    }
    return g.EdgeWeight(u, v);
  };
  return side(g2_, overlay2_) - alpha_ * side(g1_, overlay1_);
}

double DifferenceOracle::InducedWeight(const dcs::Graph& graph,
                                       const WeightOverlay* overlay,
                                       const std::vector<char>& member,
                                       std::span<const VertexId> subset) {
  double total = 0.0;
  for (VertexId u : subset) {
    for (const dcs::Neighbor& nb : graph.NeighborsOf(u)) {
      if (u >= nb.to || !member[nb.to]) continue;
      if (overlay != nullptr &&
          overlay->count(dcs::PackVertexPair(u, nb.to)) != 0) {
        continue;  // superseded by the overlay entry, added below
      }
      total += nb.weight;
    }
  }
  if (overlay != nullptr) {
    for (const auto& [key, weight] : *overlay) {
      const dcs::VertexPair pair = dcs::UnpackVertexPair(key);
      if (member[pair.u] && member[pair.v]) total += weight;
    }
  }
  return total;
}

double DifferenceOracle::Density(std::span<const VertexId> subset) const {
  std::vector<char> member(num_vertices(), 0);
  for (VertexId v : subset) member[v] = 1;
  const double w2 = InducedWeight(g2_, overlay2_, member, subset);
  const double w1 = InducedWeight(g1_, overlay1_, member, subset);
  return 2.0 * (w2 - alpha_ * w1) / static_cast<double>(subset.size());
}

void CheckResponse(const dcs::MiningResponse& response, dcs::Measure measure,
                   const DifferenceOracle& d,
                   const std::vector<VertexId>* planted,
                   const std::string& where,
                   std::vector<std::string>* violations) {
  const bool want_ad = measure != dcs::Measure::kGraphAffinity;
  const bool want_ga = measure != dcs::Measure::kAverageDegree;
  if (want_ad && response.average_degree.empty()) {
    violations->push_back(where + ": no DCSAD answer");
  }
  if (want_ga && response.graph_affinity.empty()) {
    violations->push_back(where + ": no DCSGA answer");
  }
  for (size_t i = 0; i < response.average_degree.size(); ++i) {
    CheckAverageDegree(response.average_degree[i], d,
                       where + " ad#" + std::to_string(i), violations);
  }
  for (size_t i = 0; i < response.graph_affinity.size(); ++i) {
    CheckAffinity(response.graph_affinity[i], d, planted, i == 0,
                  where + " ga#" + std::to_string(i), violations);
  }
}

uint64_t Digest(const dcs::MiningResponse& response) {
  return dcs::JobJournal::ResponseFingerprint(response);
}

void CompareDigests(const DigestMap& expected, const DigestMap& actual,
                    const std::string& what,
                    std::vector<std::string>* violations) {
  for (const auto& [key, digest] : actual) {
    const auto it = expected.find(key);
    if (it != expected.end() && it->second != digest) {
      violations->push_back(what + ": digest of stream " +
                            std::to_string(key.first) + " request " +
                            std::to_string(key.second) + " differs");
    }
  }
}

void CheckAndStoreDigests(const std::string& path, const DigestMap& digests,
                          std::vector<std::string>* violations) {
  DigestMap stored;
  if (std::FILE* in = std::fopen(path.c_str(), "r")) {
    unsigned stream = 0;
    uint64_t index = 0;
    uint64_t digest = 0;
    while (std::fscanf(in, "%u %" SCNu64 " %" SCNx64, &stream, &index,
                       &digest) == 3) {
      stored[{stream, index}] = digest;
    }
    std::fclose(in);
  }
  CompareDigests(stored, digests, "repeated run", violations);
  for (const auto& [key, digest] : digests) stored.emplace(key, digest);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    violations->push_back("cannot write digest file " + path);
    return;
  }
  for (const auto& [key, digest] : stored) {
    std::fprintf(out, "%u %" PRIu64 " %016" PRIx64 "\n", key.first, key.second,
                 digest);
  }
  if (std::fclose(out) != 0) {
    violations->push_back("cannot write digest file " + path);
  }
}

}  // namespace perfbench
