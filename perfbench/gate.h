// The correctness gate and response digests of perfbench.
//
// Every response a run collects is checked against the paper's guarantees,
// recomputed by the benchmark from its own copy of the input graphs:
//  * DCSAD: ρ_D(S) = W_D(S)/|S| recomputed equals the reported value, and the
//    Theorem 2 ratio bound β is >= 1;
//  * DCSGA: the support is a positive clique of GD (Theorem 5), the
//    embedding weights sum to 1, xᵀDx recomputed equals the reported value,
//    and — on the planted pairs — the top support lies inside the planted
//    conflicting group.
// A digest of each response's mined content (JobJournal::ResponseFingerprint:
// subgraphs with exact double bits, no telemetry) must match between the
// untraced and traced runs of one seed and across repeated runs.

#ifndef DCS_PERFBENCH_GATE_H_
#define DCS_PERFBENCH_GATE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/mining.h"

namespace perfbench {

/// Absolute edge weights that override a base graph's CSR weights (0 =
/// absent) — the benchmark's mirror of a streaming session's updates.
using WeightOverlay = std::unordered_map<uint64_t, double>;

/// D(u,v) = A2(u,v) − α·A1(u,v) over a graph pair plus optional overlays.
class DifferenceOracle {
 public:
  DifferenceOracle(const dcs::Graph& g1, const dcs::Graph& g2, double alpha,
                   const WeightOverlay* overlay1 = nullptr,
                   const WeightOverlay* overlay2 = nullptr);

  double Weight(dcs::VertexId u, dcs::VertexId v) const;
  /// ρ_D(S) = W_D(S)/|S|, each undirected edge counted twice (Table I).
  double Density(std::span<const dcs::VertexId> subset) const;
  dcs::VertexId num_vertices() const { return g1_.NumVertices(); }

 private:
  // Σ over edges {u,v} ⊆ S of one side's weight, each edge counted once.
  static double InducedWeight(const dcs::Graph& graph,
                              const WeightOverlay* overlay,
                              const std::vector<char>& member,
                              std::span<const dcs::VertexId> subset);

  const dcs::Graph& g1_;
  const dcs::Graph& g2_;
  const double alpha_;
  const WeightOverlay* overlay1_;
  const WeightOverlay* overlay2_;
};

/// Appends one line per violated guarantee of `response` to `violations`.
/// `planted` (nullable) is the planted conflicting group the top DCSGA
/// support must lie in; `where` prefixes each message.
void CheckResponse(const dcs::MiningResponse& response, dcs::Measure measure,
                   const DifferenceOracle& d,
                   const std::vector<dcs::VertexId>* planted,
                   const std::string& where,
                   std::vector<std::string>* violations);

/// Digest of a response's mined content.
uint64_t Digest(const dcs::MiningResponse& response);

/// Per-request digests keyed by (stream, index in the stream's sequence).
using DigestMap = std::map<std::pair<uint32_t, uint64_t>, uint64_t>;

/// Appends a violation for every key both maps hold with different digests.
void CompareDigests(const DigestMap& expected, const DigestMap& actual,
                    const std::string& what,
                    std::vector<std::string>* violations);

/// Compares `digests` with the file at `path` left by an earlier run of the
/// same workload and seed (when present), then stores the union.
void CheckAndStoreDigests(const std::string& path, const DigestMap& digests,
                          std::vector<std::string>* violations);

}  // namespace perfbench

#endif  // DCS_PERFBENCH_GATE_H_
