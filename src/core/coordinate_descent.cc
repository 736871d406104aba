#include "core/coordinate_descent.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dcs {
namespace {

// Maximizes g(t) = b_i·t + b_j·(C−t) + d_ij·t·(C−t) for t in [0, C] and
// returns the best t (Eq. 9 case analysis).
double SolvePairSubproblem(double b_i, double b_j, double d_ij, double c) {
  auto g = [&](double t) {
    return b_i * t + b_j * (c - t) + d_ij * t * (c - t);
  };
  if (d_ij == 0.0) {
    // Linear: move all mass towards the larger slope; stand still on ties.
    if (b_i > b_j) return c;
    if (b_i < b_j) return 0.0;
    return -1.0;  // sentinel: no move
  }
  const double b = d_ij * c + b_i - b_j;  // g(t) = −d_ij t² + B t + const
  const double r = b / (2.0 * d_ij);
  double best_t = 0.0;
  double best_val = g(0.0);
  if (g(c) > best_val) {
    best_val = g(c);
    best_t = c;
  }
  if (d_ij > 0.0 && r > 0.0 && r < c && g(r) > best_val) {
    best_t = r;  // interior vertex of a concave parabola
  }
  return best_t;
}

}  // namespace

CoordinateDescentStats DescendToLocalKkt(
    AffinityState* state, std::span<const VertexId> allowed,
    const CoordinateDescentOptions& options) {
  CoordinateDescentStats stats;
  if (allowed.size() < 2) {
    stats.converged = true;
    return stats;
  }
  const double epsilon =
      options.epsilon_scale / static_cast<double>(allowed.size());
  while (stats.iterations < options.max_iterations) {
    GradExtremes ext;
    if (!state->ComputeExtremes(allowed, &ext)) {
      // No movable pair (e.g. all mass on one vertex with x=1 and every
      // other candidate at gradient ≥ its own): treat as converged.
      stats.converged = true;
      return stats;
    }
    if (ext.max_grad - ext.min_grad <= epsilon || ext.argmax == ext.argmin) {
      stats.converged = true;
      return stats;
    }
    ++stats.iterations;
    const VertexId i = ext.argmax;
    const VertexId j = ext.argmin;
    const double c = state->x(i) + state->x(j);
    const double d_ij = state->graph().EdgeWeight(i, j);
    // b_i = Σ_{a≠j} D(a,i)·x_a = (Dx)_i − D(i,j)·x_j, and symmetrically.
    const double b_i = state->dx(i) - d_ij * state->x(j);
    const double b_j = state->dx(j) - d_ij * state->x(i);
    const double t = SolvePairSubproblem(b_i, b_j, d_ij, c);
    if (t < 0.0) {
      // Tie in the linear case — no strictly improving move exists for this
      // pair; the gradient gap is numerically zero, so stop.
      stats.converged = true;
      return stats;
    }
    state->SetX(i, t);
    state->SetX(j, c - t);
  }
  // The budget is spent, but the last move may have closed the KKT gap: a
  // run whose gap reaches epsilon exactly on the max_iterations-th move is
  // converged, not truncated. Re-check the extremes before reporting.
  GradExtremes ext;
  if (!state->ComputeExtremes(allowed, &ext) ||
      ext.max_grad - ext.min_grad <= epsilon || ext.argmax == ext.argmin) {
    stats.converged = true;
  }
  return stats;
}

bool SatisfiesKkt(const AffinityState& state, double tolerance) {
  const double lambda = 2.0 * state.Affinity();
  // Support condition: ∇_u = λ.
  for (VertexId u : state.support()) {
    if (std::fabs(2.0 * state.dx(u) - lambda) > tolerance) return false;
  }
  // Global condition ∇_u ≤ λ. Only vertices adjacent to the support can
  // have non-zero gradient.
  const Graph& graph = state.graph();
  for (VertexId u : state.support()) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      if (2.0 * state.dx(nb.to) > lambda + tolerance) return false;
    }
  }
  return true;
}

}  // namespace dcs
