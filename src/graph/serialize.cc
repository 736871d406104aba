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
    AppendU64(graph.neighbors_.size(), out);
    for (const size_t offset : graph.offsets_) {
      AppendU64(static_cast<uint64_t>(offset), out);
    }
    for (const Neighbor& nb : graph.neighbors_) {
      AppendU32(nb.to, out);
      AppendDoubleBits(nb.weight, out);
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

    std::vector<Neighbor> neighbors(static_cast<size_t>(halves));
    for (Neighbor& nb : neighbors) {
      if (!ReadU32(bytes, cursor, &nb.to) ||
          !ReadDoubleBits(bytes, cursor, &nb.weight)) {
        return Truncated();
      }
    }

    // Re-establish every Graph invariant before materializing: sorted,
    // duplicate-free, self-loop-free rows of in-range ids with finite
    // non-zero weights, and perfect half-pair symmetry.
    for (VertexId u = 0; u < n; ++u) {
      VertexId prev = 0;
      bool first = true;
      for (size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
        const Neighbor& nb = neighbors[i];
        if (nb.to >= n || nb.to == u || (!first && nb.to <= prev)) {
          return Status::InvalidArgument("graph payload adjacency invalid");
        }
        if (!std::isfinite(nb.weight) || nb.weight == 0.0) {
          return Status::InvalidArgument("graph payload weight invalid");
        }
        prev = nb.to;
        first = false;
      }
    }
    // Symmetry in O(m) (this runs on every store load, so no per-half binary
    // search): build the transpose by counting-sort into each destination
    // row — rows are sorted, so for a symmetric graph the transpose fill
    // reproduces `neighbors` exactly, halves and weight bits alike. A
    // destination row receiving more halves than it holds, or any slot
    // disagreeing, proves a half without its mirror.
    {
      std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
      std::vector<Neighbor> transpose(neighbors.size());
      for (VertexId u = 0; u < n; ++u) {
        for (size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
          const VertexId v = neighbors[i].to;
          if (cursor[v] >= offsets[v + 1]) {
            return Status::InvalidArgument("graph payload asymmetric");
          }
          transpose[cursor[v]++] = {u, neighbors[i].weight};
        }
      }
      for (size_t i = 0; i < neighbors.size(); ++i) {
        if (transpose[i].to != neighbors[i].to ||
            std::bit_cast<uint64_t>(transpose[i].weight) !=
                std::bit_cast<uint64_t>(neighbors[i].weight)) {
          return Status::InvalidArgument("graph payload asymmetric");
        }
      }
    }
    return Graph(std::move(offsets), std::move(neighbors));
  }
};

void AppendGraphBytes(const Graph& graph, std::string* out) {
  GraphSerializer::Append(graph, out);
}

Result<Graph> ParseGraphBytes(std::span<const uint8_t> bytes, size_t* cursor) {
  return GraphSerializer::Parse(bytes, cursor);
}

}  // namespace dcs
