#include "core/embedding.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dcs {

Embedding Embedding::UnitVector(VertexId n, VertexId u) {
  DCS_CHECK(u < n);
  Embedding e = Zeros(n);
  e.x[u] = 1.0;
  return e;
}

Embedding Embedding::UniformOn(VertexId n, std::span<const VertexId> members) {
  DCS_CHECK(!members.empty());
  Embedding e = Zeros(n);
  const double share = 1.0 / static_cast<double>(members.size());
  for (VertexId v : members) {
    DCS_CHECK(v < n);
    e.x[v] = share;
  }
  return e;
}

std::vector<VertexId> Embedding::Support() const {
  // Count first so the result is allocated exactly once; supports are tiny
  // next to n, so the default doubling growth wasted both space and copies.
  size_t count = 0;
  for (VertexId v = 0; v < size(); ++v) count += x[v] > 0.0 ? 1 : 0;
  std::vector<VertexId> support;
  support.reserve(count);
  for (VertexId v = 0; v < size(); ++v) {
    if (x[v] > 0.0) support.push_back(v);
  }
  return support;
}

double Embedding::Affinity(const Graph& graph) const {
  DCS_CHECK(graph.NumVertices() == size());
  double f = 0.0;
  for (VertexId u = 0; u < size(); ++u) {
    if (x[u] <= 0.0) continue;
    double row = 0.0;
    for (const Neighbor& nb : graph.NeighborsOf(u)) row += nb.weight * x[nb.to];
    f += x[u] * row;
  }
  return f;
}

double Embedding::Sum() const {
  double total = 0.0;
  for (double v : x) total += v;
  return total;
}

bool Embedding::IsOnSimplex(double eps) const {
  for (double v : x) {
    if (v < 0.0) return false;
  }
  return std::fabs(Sum() - 1.0) <= eps;
}

AffinityState::AffinityState(const Graph& graph)
    : graph_(&graph),
      x_(graph.NumVertices(), 0.0),
      dx_(graph.NumVertices(), 0.0),
      support_pos_(graph.NumVertices(), kNotInSupport),
      in_ever_support_(graph.NumVertices(), 0),
      renorm_seen_(graph.NumVertices(), 0) {}

void AffinityState::ResetToVertex(VertexId u) {
  DCS_CHECK(u < NumVertices());
  // Clear the sparse residue of the previous run. Iterating the vertices
  // that *ever* held mass — not just the final support — wipes every dx
  // entry the run touched, including last-ulp cancellation residue at
  // neighbors of vertices that left the support mid-run.
  for (VertexId v : ever_support_) {
    for (VertexId t : graph_->NeighborsOf(v).targets()) dx_[t] = 0.0;
    x_[v] = 0.0;
    support_pos_[v] = kNotInSupport;
    in_ever_support_[v] = 0;
  }
  ever_support_.clear();
  support_.clear();
  SetX(u, 1.0);
}

Status AffinityState::ResetToEmbedding(const Embedding& embedding) {
  if (embedding.size() != NumVertices()) {
    return Status::InvalidArgument("embedding size mismatch");
  }
  if (!embedding.IsOnSimplex()) {
    return Status::InvalidArgument("embedding is not on the simplex");
  }
  ResetToVertex(0);
  SetX(0, 0.0);
  for (VertexId v = 0; v < NumVertices(); ++v) {
    if (embedding.x[v] > 0.0) SetX(v, embedding.x[v]);
  }
  return Status::OK();
}

double AffinityState::Affinity() const {
  return SupportReduce(support_.data(), support_.size(), x_.data(), dx_.data());
}

void AffinityState::AddToSupport(VertexId v) {
  if (support_pos_[v] != kNotInSupport) return;
  support_pos_[v] = static_cast<uint32_t>(support_.size());
  support_.push_back(v);
  if (!in_ever_support_[v]) {
    in_ever_support_[v] = 1;
    ever_support_.push_back(v);
  }
}

void AffinityState::RemoveFromSupport(VertexId v) {
  const uint32_t pos = support_pos_[v];
  if (pos == kNotInSupport) return;
  const VertexId last = support_.back();
  support_[pos] = last;
  support_pos_[last] = pos;
  support_.pop_back();
  support_pos_[v] = kNotInSupport;
}

void AffinityState::SetX(VertexId v, double value) {
  DCS_CHECK(v < NumVertices());
  DCS_CHECK(value >= 0.0) << "negative embedding entry " << value
                          << " at vertex " << v;
  const double delta = value - x_[v];
  if (delta == 0.0) {
    return;
  }
  x_[v] = value;
  if (value > 0.0) {
    AddToSupport(v);
  } else {
    RemoveFromSupport(v);
  }
  const NeighborRow row = graph_->NeighborsOf(v);
  AxpyScatter(row.targets().data(), row.weights().data(), row.size(), delta,
              dx_.data());
}

void AffinityState::Renormalize() {
  double total = 0.0;
  for (VertexId v : support_) total += x_[v];
  if (total <= 0.0 || total == 1.0) return;
  const double inv = 1.0 / total;
  for (VertexId v : support_) x_[v] *= inv;
  // dx[w] = Σ_{v in support} w(v,w)·x_v is linear in x, so the same uniform
  // rescale applies; only entries adjacent to the support are non-zero. The
  // visited set is an epoch stamp, not a fresh O(n) allocation — Renormalize
  // runs once per Expand step, and the allocation dominated it on large n.
  const uint64_t epoch = ++renorm_epoch_;
  for (VertexId v : support_) {
    for (VertexId t : graph_->NeighborsOf(v).targets()) {
      if (renorm_seen_[t] != epoch) {
        renorm_seen_[t] = epoch;
        dx_[t] *= inv;
      }
    }
  }
}

Embedding AffinityState::ToEmbedding() const {
  Embedding e = Embedding::Zeros(NumVertices());
  e.x = x_;
  return e;
}

bool AffinityState::ComputeExtremes(std::span<const VertexId> candidates,
                                    GradExtremes* out) const {
  return ScanGradientExtremes(candidates.data(), candidates.size(), x_.data(),
                              dx_.data(), out);
}

}  // namespace dcs
