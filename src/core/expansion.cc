#include "core/expansion.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dcs {
namespace {

// Reusable per-thread scratch for the expansion steps. Expand runs once per
// SEACD round over supports that are tiny next to n, so the former
// O(n)-zeroed allocations per call dominated the step on large graphs;
// epoch stamps make membership tests O(1) without ever clearing. gamma_of
// entries are only read through their epoch stamp, so stale values from
// earlier calls are unreachable.
struct ExpansionScratch {
  std::vector<uint64_t> considered_epoch;
  std::vector<uint64_t> gamma_epoch;
  std::vector<double> gamma_of;
  uint64_t epoch = 0;
};

ExpansionScratch& LocalScratch(size_t n) {
  thread_local ExpansionScratch scratch;
  if (scratch.considered_epoch.size() < n) {
    scratch.considered_epoch.resize(n, 0);
    scratch.gamma_epoch.resize(n, 0);
    scratch.gamma_of.resize(n, 0.0);
  }
  return scratch;
}

}  // namespace

std::vector<VertexId> ComputeExpansionSet(const AffinityState& state,
                                          double margin,
                                          bool include_support) {
  const double f = state.Affinity();
  const Graph& graph = state.graph();
  std::vector<VertexId> z;
  ExpansionScratch& scratch = LocalScratch(graph.NumVertices());
  const uint64_t epoch = ++scratch.epoch;
  for (VertexId u : state.support()) {
    scratch.considered_epoch[u] = epoch;
    if (include_support && state.dx(u) > f + margin) z.push_back(u);
  }
  for (VertexId u : state.support()) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      const VertexId v = nb.to;
      if (scratch.considered_epoch[v] == epoch) continue;
      scratch.considered_epoch[v] = epoch;
      if (state.dx(v) > f + margin) z.push_back(v);
    }
  }
  return z;
}

ExpansionResult SeaExpand(AffinityState* state, double margin,
                          bool include_support) {
  ExpansionResult result;
  result.f_before = state->Affinity();
  result.f_after = result.f_before;
  const std::vector<VertexId> z =
      ComputeExpansionSet(*state, margin, include_support);
  if (z.empty()) return result;

  const double f = result.f_before;
  double s = 0.0, zeta = 0.0;
  std::vector<double> gamma(z.size());
  // Map vertex -> gamma for the ω accumulation (epoch-stamped scratch; the
  // stamp doubles as the in-Z membership test).
  const Graph& graph = state->graph();
  ExpansionScratch& scratch = LocalScratch(graph.NumVertices());
  const uint64_t epoch = ++scratch.epoch;
  for (size_t idx = 0; idx < z.size(); ++idx) {
    gamma[idx] = state->dx(z[idx]) - f;
    s += gamma[idx];
    zeta += gamma[idx] * gamma[idx];
    scratch.gamma_of[z[idx]] = gamma[idx];
    scratch.gamma_epoch[z[idx]] = epoch;
  }
  double omega = 0.0;  // Σ_{i,j∈Z} γ_i γ_j D(i,j): ordered pairs over edges
  for (VertexId i : z) {
    for (const Neighbor& nb : graph.NeighborsOf(i)) {
      // Same arithmetic as the dense map: γ reads as +0.0 outside Z, so the
      // off-Z terms still contribute their exactly-zero products.
      const double gamma_to =
          scratch.gamma_epoch[nb.to] == epoch ? scratch.gamma_of[nb.to] : 0.0;
      omega += scratch.gamma_of[i] * gamma_to * nb.weight;
    }
  }
  DCS_CHECK(s > 0.0);
  // Δf(τ) = −a·τ² + 2ζ·τ with a = f·s² + 2sζ − ω (exact when Z ∩ Sx = ∅;
  // an approximation otherwise — the source of the baseline's errors).
  const double a = f * s * s + 2.0 * s * zeta - omega;
  double tau = 1.0 / s;
  if (a > 0.0) tau = std::min(tau, zeta / a);

  // Apply x ← x + τ·b with b_i = γ_i on Z and b_i = −x_i·s on Sx \ Z.
  // Snapshot the support first: SetX mutates it.
  const std::vector<VertexId> old_support(state->support().begin(),
                                          state->support().end());
  const double shrink_factor = 1.0 - tau * s;
  DCS_CHECK(shrink_factor >= -1e-12);
  for (VertexId v : old_support) {
    if (scratch.gamma_epoch[v] == epoch) continue;
    state->SetX(v, std::max(0.0, state->x(v) * shrink_factor));
  }
  for (size_t idx = 0; idx < z.size(); ++idx) {
    const double value = state->x(z[idx]) + tau * gamma[idx];
    state->SetX(z[idx], value);
    // The ω loop above read row z[idx]; a vertex whose mass rounds to 0
    // never enters the support, so its read is noted here.
    if (value == 0.0) state->NoteRowRead(z[idx]);
  }
  state->Renormalize();

  result.expanded = true;
  result.num_added = z.size();
  result.f_after = state->Affinity();
  return result;
}

}  // namespace dcs
