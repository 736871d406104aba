#include "graph/csr_patcher.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace dcs {

namespace {

// One directed half of an EdgePatch, routed to its adjacency row.
struct RowChange {
  VertexId row;
  VertexId to;
  double weight;
  bool keep;  // false = ensure absent
};

}  // namespace

Graph CsrPatcher::Apply(const Graph& base, std::span<const EdgePatch> patches,
                        double zero_eps, uint64_t* accumulator) {
  const VertexId n = base.NumVertices();
  if (patches.empty()) return base;

  // Validate the batch, maintain the content accumulator, and split each
  // undirected assignment into its two directed row changes.
  std::vector<RowChange> changes;
  changes.reserve(patches.size() * 2);
  uint64_t acc = accumulator != nullptr ? *accumulator : 0;
  uint64_t prev_pair = 0;
  for (size_t i = 0; i < patches.size(); ++i) {
    const EdgePatch& p = patches[i];
    DCS_CHECK(p.u < p.v && p.v < n)
        << "EdgePatch (" << p.u << "," << p.v << ") out of contract for n="
        << n;
    DCS_CHECK(std::isfinite(p.weight)) << "non-finite patch weight";
    const uint64_t pair = PackVertexPair(p.u, p.v);
    DCS_CHECK(i == 0 || prev_pair < pair)
        << "patches must be sorted by (u,v) with no duplicates";
    prev_pair = pair;
    const bool keep = std::fabs(p.weight) > zero_eps;
    if (accumulator != nullptr) {
      // Stored weights are never (near-)zero, so EdgeWeight == 0 means
      // absent; subtract the edge being rewritten, add its replacement.
      const double old_weight = base.EdgeWeight(p.u, p.v);
      if (old_weight != 0.0) {
        acc -= Graph::UndirectedEdgeHash(p.u, p.v, old_weight);
      }
      if (keep) acc += Graph::UndirectedEdgeHash(p.u, p.v, p.weight);
    }
    changes.push_back(RowChange{p.u, p.v, p.weight, keep});
    changes.push_back(RowChange{p.v, p.u, p.weight, keep});
  }
  std::sort(changes.begin(), changes.end(),
            [](const RowChange& a, const RowChange& b) {
              return a.row != b.row ? a.row < b.row : a.to < b.to;
            });

  // Merge each touched row with its (sorted) changes into a scratch area.
  std::vector<VertexId> scratch_targets;
  std::vector<double> scratch_weights;
  const auto emit = [&](Neighbor nb) {
    scratch_targets.push_back(nb.to);
    scratch_weights.push_back(nb.weight);
  };
  struct TouchedRow {
    VertexId row;
    size_t begin;
    size_t end;  // [begin, end) in scratch
  };
  std::vector<TouchedRow> touched;
  touched.reserve(changes.size());
  for (size_t ci = 0; ci < changes.size();) {
    const VertexId row = changes[ci].row;
    size_t ce = ci;
    while (ce < changes.size() && changes[ce].row == row) ++ce;
    const size_t begin = scratch_targets.size();
    const NeighborRow old_row = base.NeighborsOf(row);
    size_t oi = 0;
    for (size_t k = ci; k < ce; ++k) {
      const RowChange& change = changes[k];
      while (oi < old_row.size() && old_row[oi].to < change.to) {
        emit(old_row[oi++]);
      }
      if (oi < old_row.size() && old_row[oi].to == change.to) ++oi;  // rewritten
      if (change.keep) emit(Neighbor{change.to, change.weight});
    }
    while (oi < old_row.size()) emit(old_row[oi++]);
    touched.push_back(TouchedRow{row, begin, scratch_targets.size()});
    ci = ce;
  }

  // New offsets: one prefix-sum pass; only touched rows change size.
  std::vector<size_t> offsets(static_cast<size_t>(n) + 1, 0);
  {
    size_t t = 0;
    for (VertexId row = 0; row < n; ++row) {
      size_t degree;
      if (t < touched.size() && touched[t].row == row) {
        degree = touched[t].end - touched[t].begin;
        ++t;
      } else {
        degree = base.Degree(row);
      }
      offsets[row + 1] = offsets[row] + degree;
    }
  }

  // Assemble both arrays: untouched row runs are carried over with one bulk
  // contiguous copy each (a run of untouched rows is one contiguous span of
  // each CSR array); merged rows are spliced from scratch.
  std::vector<VertexId> targets(offsets[n]);
  std::vector<double> weights(offsets[n]);
  const auto carry = [&](VertexId first_row, VertexId end_row) {
    const size_t from = base.offsets_[first_row];
    const size_t to = base.offsets_[end_row];
    std::copy(base.targets_.begin() + from, base.targets_.begin() + to,
              targets.begin() + offsets[first_row]);
    std::copy(base.weights_.begin() + from, base.weights_.begin() + to,
              weights.begin() + offsets[first_row]);
  };
  VertexId run_start = 0;
  for (const TouchedRow& tr : touched) {
    carry(run_start, tr.row);
    std::copy(scratch_targets.begin() + tr.begin,
              scratch_targets.begin() + tr.end, targets.begin() + offsets[tr.row]);
    std::copy(scratch_weights.begin() + tr.begin,
              scratch_weights.begin() + tr.end, weights.begin() + offsets[tr.row]);
    run_start = tr.row + 1;
  }
  carry(run_start, n);

  if (accumulator != nullptr) *accumulator = acc;
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

}  // namespace dcs
