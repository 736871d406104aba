// Subgraph embeddings on the standard simplex (§III-A of the paper) and the
// incremental state shared by every DCSGA solver.
//
// A subgraph embedding x ∈ Δn assigns each vertex a participation weight;
// its support Sx = {u : x_u > 0} is the subgraph it denotes, and its graph
// affinity is f(x) = xᵀDx. All DCSGA algorithms in libdcs (2-coordinate
// descent, SEA expansion, replicator dynamics, refinement) mutate an
// embedding while maintaining the product Dx incrementally; AffinityState
// owns that bookkeeping so each algorithm stays small and O(deg) per step.

#ifndef DCS_CORE_EMBEDDING_H_
#define DCS_CORE_EMBEDDING_H_

#include <span>
#include <vector>

#include "core/kernels.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// \brief A point of the standard simplex Δn, stored densely.
struct Embedding {
  std::vector<double> x;

  /// Embedding of n zeros (not on the simplex until initialized).
  static Embedding Zeros(VertexId n) { return Embedding{std::vector<double>(n, 0.0)}; }

  /// The unit vector e_u.
  static Embedding UnitVector(VertexId n, VertexId u);

  /// Uniform distribution over `members`.
  static Embedding UniformOn(VertexId n, std::span<const VertexId> members);

  VertexId size() const { return static_cast<VertexId>(x.size()); }

  /// Sx = {u : x_u > 0}, ascending.
  std::vector<VertexId> Support() const;

  /// f(x) = xᵀDx for the given graph (O(sum of support degrees)).
  double Affinity(const Graph& graph) const;

  /// Σ x_u (should be 1 on the simplex).
  double Sum() const;

  /// True iff x is on the simplex up to `eps`: entries >= 0, sum within eps
  /// of 1.
  bool IsOnSimplex(double eps = 1e-6) const;
};

/// \brief Mutable embedding + cached products for fast local moves.
///
/// Maintains, for the current x over graph D:
///   dx[v]   = (Dx)_v           for every vertex v,
///   support = {v : x_v > 0},
///   f       = xᵀDx.
/// Every mutation updates dx only along the edges of the vertices whose x
/// changed. Gradient convention: ∇_v f = 2(Dx)_v; KKT multiplier λ = 2f.
///
/// The state owns only O(n) vectors: the per-move hot loops run through
/// core/kernels.h over the graph's own target and weight arrays, read in
/// place. The kernels are bit-identical to the scalar loops they replaced.
class AffinityState {
 public:
  /// Starts from the all-zeros embedding.
  explicit AffinityState(const Graph& graph);

  /// Resets to x = e_u.
  void ResetToVertex(VertexId u);

  /// Resets to an arbitrary embedding (validated: non-negative entries, sum
  /// within 1e-6 of 1).
  Status ResetToEmbedding(const Embedding& embedding);

  const Graph& graph() const { return *graph_; }
  VertexId NumVertices() const { return graph_->NumVertices(); }

  double x(VertexId v) const { return x_[v]; }
  /// (Dx)_v — half the partial derivative of f at v.
  double dx(VertexId v) const { return dx_[v]; }
  /// Current objective f(x) = xᵀDx, recomputed from the support (exact up to
  /// the usual floating-point roundoff; O(|support|)).
  double Affinity() const;

  /// Current support (ascending order not guaranteed; no duplicates).
  std::span<const VertexId> support() const { return support_; }

  /// Sets x_v to `value` (>= 0) and updates dx along v's edges. O(deg v).
  void SetX(VertexId v, double value);

  /// Rescales x to sum exactly 1 (counters drift after long runs). No-op on
  /// an all-zero state. Allocation-free: the per-call visited set is an
  /// epoch-stamped scratch buffer owned by the state.
  void Renormalize();

  /// Copies the current x into an Embedding.
  Embedding ToEmbedding() const;

  /// Largest ∇ over {k in S : x_k < 1} and smallest ∇ over {k in S: x_k > 0};
  /// used for KKT checks and pair selection. Returns false if either set is
  /// empty (`*out` is then unspecified).
  bool ComputeExtremes(std::span<const VertexId> candidates,
                       GradExtremes* out) const;

 private:
  void AddToSupport(VertexId v);
  void RemoveFromSupport(VertexId v);

  const Graph* graph_;
  std::vector<double> x_;
  std::vector<double> dx_;
  std::vector<VertexId> support_;
  std::vector<uint32_t> support_pos_;  // index into support_, or kNotInSupport
  // Every vertex that entered the support since the last reset. dx can be
  // non-zero only on the closed neighborhoods of these vertices, so zeroing
  // exactly that set on reset restores dx ≡ 0 bit-for-bit: after a reset the
  // state is indistinguishable from a freshly constructed one, and every run
  // from a seed is a pure function of (graph, seed) no matter which runs the
  // state hosted before. The NewSEA shard workers rely on this purity for
  // their bit-identical-to-sequential guarantee.
  std::vector<VertexId> ever_support_;
  std::vector<char> in_ever_support_;
  // Epoch-stamped scratch for Renormalize's visited set (no O(n) clears).
  std::vector<uint64_t> renorm_seen_;
  uint64_t renorm_epoch_ = 0;
  static constexpr uint32_t kNotInSupport = static_cast<uint32_t>(-1);
};

}  // namespace dcs

#endif  // DCS_CORE_EMBEDDING_H_
