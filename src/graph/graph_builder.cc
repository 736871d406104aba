#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"

namespace dcs {

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices) {}

Status GraphBuilder::AddEdge(VertexId u, VertexId v, double weight) {
  if (u == v) {
    return Status::InvalidArgument("self-loop on vertex " + std::to_string(u));
  }
  if (u >= num_vertices_ || v >= num_vertices_) {
    return Status::OutOfRange("edge endpoint out of range: (" +
                              std::to_string(u) + "," + std::to_string(v) +
                              ") with n=" + std::to_string(num_vertices_));
  }
  if (!std::isfinite(weight)) {
    return Status::InvalidArgument("non-finite edge weight");
  }
  if (u > v) std::swap(u, v);
  entries_.push_back(Entry{u, v, weight});
  return Status::OK();
}

void GraphBuilder::AddEdgeUnchecked(VertexId u, VertexId v, double weight) {
  Status st = AddEdge(u, v, weight);
  DCS_CHECK(st.ok()) << st.ToString();
}

Result<Graph> GraphBuilder::Build(double zero_eps) {
  if (zero_eps < 0.0 || !std::isfinite(zero_eps)) {
    return Status::InvalidArgument("zero_eps must be finite and >= 0");
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  // Merge duplicates in place: `kept` is the length of the compacted prefix.
  // A run whose sum is (near) zero is dropped by not advancing `kept`, so
  // the builder never holds a second copy of its entries.
  size_t kept = 0;
  for (size_t i = 0; i < entries_.size();) {
    Entry run = entries_[i];
    for (++i; i < entries_.size() && entries_[i].u == run.u &&
              entries_[i].v == run.v;
         ++i) {
      run.weight += entries_[i].weight;
    }
    if (std::fabs(run.weight) > zero_eps) entries_[kept++] = run;
  }
  // Take the storage out so the builder is left empty and holds no capacity.
  std::vector<Entry> merged = std::move(entries_);
  entries_ = {};
  merged.resize(kept);

  const size_t n = num_vertices_;
  std::vector<size_t> degree(n, 0);
  for (const Entry& e : merged) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + degree[u];
  std::vector<VertexId> targets(offsets[n]);
  std::vector<double> weights(offsets[n]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  // Every row comes out sorted without a sort. `merged` is sorted by (u, v)
  // with u < v, so row x first receives every (u, x) with u < x, in
  // ascending u, and then the run of (x, v) with v > x, in ascending v. No
  // other entry touches row x, and the first run's ids are all below x
  // while the second's are all above it.
  for (const Entry& e : merged) {
    targets[cursor[e.u]] = e.v;
    weights[cursor[e.u]++] = e.weight;
    targets[cursor[e.v]] = e.u;
    weights[cursor[e.v]++] = e.weight;
  }
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

}  // namespace dcs
