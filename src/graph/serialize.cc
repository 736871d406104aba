#include "graph/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/byte_codec.h"

namespace dcs {

namespace {

Status Truncated() {
  return Status::InvalidArgument("graph payload truncated");
}

}  // namespace

// The one unit with access to Graph's CSR internals for the round trip
// (declared a friend in graph/graph.h).
class GraphSerializer {
 public:
  static void Append(const Graph& graph, std::string* out) {
    AppendU32(graph.NumVertices(), out);
    AppendU64(graph.targets_.size(), out);
    for (const size_t offset : graph.offsets_) {
      AppendU64(static_cast<uint64_t>(offset), out);
    }
    for (size_t i = 0; i < graph.targets_.size(); ++i) {
      AppendU32(graph.targets_[i], out);
      AppendDoubleBits(graph.weights_[i], out);
    }
  }

  static Result<Graph> Parse(std::span<const uint8_t> bytes, size_t* cursor) {
    uint32_t n = 0;
    uint64_t halves = 0;
    if (!ReadU32(bytes, cursor, &n) || !ReadU64(bytes, cursor, &halves)) {
      return Truncated();
    }
    // Bound the declared sizes by the bytes actually present before
    // allocating anything — a corrupt header must not drive a huge reserve.
    const size_t remaining = bytes.size() - *cursor;
    if (halves % 2 != 0 ||
        (static_cast<uint64_t>(n) + 1) * 8 + halves * 12 > remaining) {
      return Status::InvalidArgument("graph payload sizes exceed the buffer");
    }

    std::vector<size_t> offsets(static_cast<size_t>(n) + 1);
    for (size_t i = 0; i < offsets.size(); ++i) {
      uint64_t v = 0;
      if (!ReadU64(bytes, cursor, &v)) return Truncated();
      offsets[i] = static_cast<size_t>(v);
    }
    if (offsets.front() != 0 || offsets.back() != halves ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      return Status::InvalidArgument("graph payload offsets not a CSR");
    }

    std::vector<VertexId> targets(static_cast<size_t>(halves));
    std::vector<double> weights(static_cast<size_t>(halves));
    for (size_t i = 0; i < targets.size(); ++i) {
      if (!ReadU32(bytes, cursor, &targets[i]) ||
          !ReadDoubleBits(bytes, cursor, &weights[i])) {
        return Truncated();
      }
    }

    // Re-establish every Graph invariant before materializing: sorted,
    // duplicate-free, self-loop-free rows of in-range ids with finite
    // non-zero weights, and perfect half-pair symmetry.
    for (VertexId u = 0; u < n; ++u) {
      for (size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
        const VertexId to = targets[i];
        if (to >= n || to == u || (i > offsets[u] && to <= targets[i - 1])) {
          return Status::InvalidArgument("graph payload adjacency invalid");
        }
        if (!std::isfinite(weights[i]) || weights[i] == 0.0) {
          return Status::InvalidArgument("graph payload weight invalid");
        }
      }
    }
    // Symmetry in O(m) (this runs on every store load, so no per-half binary
    // search): fill the transpose by counting-sort into each destination
    // row, comparing as it goes. Rows are sorted, so for a symmetric graph
    // slot cursor[v] of the transpose is exactly half (v, u) of the graph,
    // target and weight bits alike. A destination row receiving more halves
    // than it holds, or any slot disagreeing, proves a half without its
    // mirror; every slot is checked because the halves fill all of them.
    {
      std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
      for (VertexId u = 0; u < n; ++u) {
        for (size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
          const VertexId v = targets[i];
          if (cursor[v] >= offsets[v + 1]) {
            return Status::InvalidArgument("graph payload asymmetric");
          }
          const size_t slot = cursor[v]++;
          if (targets[slot] != u || std::bit_cast<uint64_t>(weights[slot]) !=
                                        std::bit_cast<uint64_t>(weights[i])) {
            return Status::InvalidArgument("graph payload asymmetric");
          }
        }
      }
    }
    return Graph(std::move(offsets), std::move(targets), std::move(weights));
  }
};

void AppendGraphBytes(const Graph& graph, std::string* out) {
  GraphSerializer::Append(graph, out);
}

Result<Graph> ParseGraphBytes(std::span<const uint8_t> bytes, size_t* cursor) {
  return GraphSerializer::Parse(bytes, cursor);
}

}  // namespace dcs
