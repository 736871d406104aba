// Immutable undirected weighted graph in CSR (compressed sparse row) form.
//
// This is the substrate every DCS algorithm runs on. Following Table I of the
// paper, a graph G = <V, E, A> is undirected and weighted; in a *difference
// graph* GD = G2 − G1 edge weights may be negative, so dcs::Graph makes no
// sign assumption. Self-loops are rejected at construction (A has zero
// diagonal in the affinity formulation) and parallel edges are merged by the
// builder before a Graph is materialized.

#ifndef DCS_GRAPH_GRAPH_H_
#define DCS_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace dcs {

struct DiscretizeSpec;  // graph/difference.h

/// Vertex identifier: dense indices in [0, NumVertices()).
using VertexId = uint32_t;

/// \brief Packs an unordered vertex pair into one map key (smaller id in the
/// high word). Shared by every streaming-update weight map.
inline uint64_t PackVertexPair(VertexId u, VertexId v) {
  static_assert(sizeof(VertexId) <= sizeof(uint32_t),
                "PackVertexPair packs two VertexIds into one uint64_t; the "
                "'<< 32' packing silently collides if VertexId is widened "
                "past 32 bits");
  if (u > v) {
    const VertexId t = u;
    u = v;
    v = t;
  }
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// An unordered vertex pair as unpacked from a PackVertexPair key (u < v).
struct VertexPair {
  VertexId u;
  VertexId v;
};

/// \brief Inverse of PackVertexPair — the one place that knows the packing,
/// so every pair-keyed map consumer round-trips through the same layout.
inline VertexPair UnpackVertexPair(uint64_t key) {
  return {static_cast<VertexId>(key >> 32),
          static_cast<VertexId>(key & 0xFFFFFFFFull)};
}

/// One directed half of an undirected edge: what a row view yields.
struct Neighbor {
  VertexId to;
  double weight;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// \brief Read-only view of one adjacency row: its slices of the graph's
/// parallel target and weight arrays. Indexing and iteration yield Neighbor
/// values in row order, so `for (const Neighbor& nb : g.NeighborsOf(u))`
/// reads both arrays; hot loops stream targets() and weights() directly.
class NeighborRow {
 public:
  class Iterator {
   public:
    Iterator(const VertexId* to, const double* weight)
        : to_(to), weight_(weight) {}

    Neighbor operator*() const { return {*to_, *weight_}; }
    Iterator& operator++() {
      ++to_;
      ++weight_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.to_ == b.to_;
    }

   private:
    const VertexId* to_;
    const double* weight_;
  };

  NeighborRow(const VertexId* targets, const double* weights, size_t size)
      : targets_(targets), weights_(weights), size_(size) {}

  size_t size() const { return size_; }
  Neighbor operator[](size_t i) const { return {targets_[i], weights_[i]}; }
  Iterator begin() const { return {targets_, weights_}; }
  Iterator end() const { return {targets_ + size_, weights_ + size_}; }

  /// The row's neighbor ids, ascending.
  std::span<const VertexId> targets() const { return {targets_, size_}; }
  /// The row's weights, index-aligned with targets().
  std::span<const double> weights() const { return {weights_, size_}; }

 private:
  const VertexId* targets_;
  const double* weights_;
  size_t size_;
};

/// An undirected edge with endpoints u < v.
struct Edge {
  VertexId u;
  VertexId v;
  double weight;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Summary statistics of a graph's weights (used for Table II).
struct WeightStats {
  size_t num_positive_edges = 0;  ///< m+ : undirected edges with weight > 0
  size_t num_negative_edges = 0;  ///< m− : undirected edges with weight < 0
  double max_weight = 0.0;        ///< 0 for an empty graph
  double min_weight = 0.0;        ///< 0 for an empty graph
  double mean_weight = 0.0;       ///< average undirected edge weight
};

/// \brief Immutable undirected weighted graph (CSR).
///
/// The one adjacency layout of the library: an offsets array and two
/// parallel arrays over the 2m directed halves, u32 targets and f64 weights
/// (12 bytes per half). Every solver reads rows in place through
/// NeighborsOf; nothing restages the adjacency.
///
/// Construction goes through GraphBuilder (or the factory helpers in
/// gen/ and graph/difference.h); a constructed Graph always satisfies:
///  - adjacency lists sorted by neighbor id, no duplicates, no self-loops;
///  - perfect symmetry: v in adj(u) iff u in adj(v), with equal weights;
///  - all weights finite and non-zero.
class Graph {
 public:
  /// An empty graph with `n` isolated vertices.
  explicit Graph(VertexId n = 0);

  VertexId NumVertices() const { return static_cast<VertexId>(offsets_.size() - 1); }

  /// Number of *undirected* edges m (each stored twice internally).
  size_t NumEdges() const { return targets_.size() / 2; }

  /// Sorted adjacency row of `u`, read in place.
  NeighborRow NeighborsOf(VertexId u) const {
    const size_t begin = offsets_[u];
    return {targets_.data() + begin, weights_.data() + begin,
            offsets_[u + 1] - begin};
  }

  /// Unweighted degree of `u`.
  size_t Degree(VertexId u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Weighted degree of `u`: sum of incident edge weights.
  double WeightedDegree(VertexId u) const;

  /// Weight of edge (u,v), or 0 when absent. O(log deg(u)).
  double EdgeWeight(VertexId u, VertexId v) const;

  /// True iff (u,v) is an edge. O(log deg(u)).
  bool HasEdge(VertexId u, VertexId v) const { return EdgeWeight(u, v) != 0.0; }

  /// All undirected edges with u < v, sorted lexicographically.
  std::vector<Edge> UndirectedEdges() const;

  /// Weight statistics over undirected edges.
  WeightStats ComputeWeightStats() const;

  /// Maximum edge weight incident to each vertex (−inf for isolated
  /// vertices). Used by NewSEA's smart initialization (w_u of Theorem 6).
  std::vector<double> MaxIncidentWeightPerVertex() const;

  /// \brief The subgraph of edges with strictly positive weight — GD+ of
  /// Table I. Vertex set (and ids) are preserved.
  Graph PositivePart() const;

  /// \brief Returns a copy with every weight w replaced by min(w, cap),
  /// cap > 0 (the §III-D heavy-edge adjustment; Actor "Discrete" setting).
  Graph WeightsClampedAbove(double cap) const;

  /// \brief Stable 64-bit fingerprint of the graph's content (vertex count,
  /// adjacency structure and exact weight bit patterns).
  ///
  /// Two graphs built from the same edges — regardless of insertion order,
  /// since GraphBuilder canonicalizes to sorted CSR — fingerprint equal; any
  /// structural or weight difference changes it (modulo the 2^-64 collision
  /// probability, which the cross-session PipelineCache accepts as content
  /// equality). The value is a pure function of the content: stable across
  /// processes, runs and platforms with IEEE-754 doubles. O(n + m).
  ///
  /// Construction: the fingerprint folds the vertex count with a wrapping
  /// *sum* of per-edge hashes (ContentAccumulator), so a streaming patch can
  /// maintain it in O(Δ) — subtract the hashes of the edges it rewrites, add
  /// the hashes of their replacements — instead of rehashing the graph (see
  /// graph/csr_patcher.h).
  uint64_t ContentFingerprint() const;

  /// Hash of one undirected edge (canonical u < v) as summed by
  /// ContentAccumulator. Exposed for the O(Δ) incremental maintenance above.
  static uint64_t UndirectedEdgeHash(VertexId u, VertexId v, double weight);

  /// Wrapping sum of UndirectedEdgeHash over all undirected edges — the
  /// order-free, incrementally maintainable half of ContentFingerprint.
  /// O(n + m).
  uint64_t ContentAccumulator() const;

  /// Folds a vertex count and a ContentAccumulator value into the final
  /// ContentFingerprint; FingerprintFromAccumulator(NumVertices(),
  /// ContentAccumulator()) == ContentFingerprint() by definition.
  static uint64_t FingerprintFromAccumulator(VertexId n, uint64_t accumulator);

  /// Approximate heap footprint of this graph in bytes (CSR arrays); used
  /// for the PipelineCache byte budget.
  size_t ApproxBytes() const {
    return sizeof(Graph) + offsets_.capacity() * sizeof(size_t) +
           targets_.capacity() * sizeof(VertexId) +
           weights_.capacity() * sizeof(double);
  }

  /// Human-readable one-line summary ("Graph(n=..., m=..., m+=..., m-=...)").
  std::string DebugString() const;

  friend class GraphBuilder;
  friend class CsrPatcher;
  friend class GraphSerializer;  // graph/serialize.cc: flat CSR round trip
  // graph/difference.cc: both emit already-sorted rows as CSR directly.
  friend Result<Graph> BuildDifferenceGraph(const Graph& g1, const Graph& g2,
                                            double alpha);
  friend Result<Graph> DiscretizeWeights(const Graph& gd,
                                         const DiscretizeSpec& spec);

 private:
  Graph(std::vector<size_t> offsets, std::vector<VertexId> targets,
        std::vector<double> weights)
      : offsets_(std::move(offsets)),
        targets_(std::move(targets)),
        weights_(std::move(weights)) {}

  std::vector<size_t> offsets_;    // size n+1
  std::vector<VertexId> targets_;  // size 2m, sorted within each row
  std::vector<double> weights_;    // size 2m, aligned with targets_
};

}  // namespace dcs

#endif  // DCS_GRAPH_GRAPH_H_
