#include "graph/io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "graph/graph_builder.h"

namespace dcs {
namespace {

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;  // blank
}

}  // namespace

Result<Graph> ReadEdgeList(std::istream& in) {
  std::string line;
  size_t line_number = 0;
  // Header: vertex count.
  long long n = -1;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream header(line);
    if (!(header >> n) || n < 0) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": expected non-negative vertex count");
    }
    if (n > static_cast<long long>(std::numeric_limits<VertexId>::max())) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": vertex count " + std::to_string(n) +
                             " exceeds the VertexId range");
    }
    // `>>` stops at the first non-digit, so "3.7" or "12abc" would read as
    // a count with a leftover token; reject it like an edge row's.
    std::string trailing;
    if (header >> trailing) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": trailing tokens after vertex count");
    }
    break;
  }
  if (n < 0) return Status::IoError("missing vertex-count header");
  GraphBuilder builder(static_cast<VertexId>(n));
  while (std::getline(in, line)) {
    ++line_number;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream row(line);
    long long u, v;
    double w;
    if (!(row >> u >> v >> w)) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": expected '<u> <v> <weight>'");
    }
    std::string trailing;
    if (row >> trailing) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": trailing tokens after edge");
    }
    if (u < 0 || v < 0 || u >= n || v >= n) {
      return Status::IoError("line " + std::to_string(line_number) +
                             ": endpoint out of range");
    }
    Status added = builder.AddEdge(static_cast<VertexId>(u),
                                   static_cast<VertexId>(v), w);
    if (!added.ok()) {
      return Status::IoError("line " + std::to_string(line_number) + ": " +
                             added.message());
    }
  }
  return builder.Build();
}

Result<Graph> ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ReadEdgeList(in);
}

Status WriteEdgeList(const Graph& graph, std::ostream& out) {
  out << "# dcs edge list: <n> header then '<u> <v> <weight>' rows\n";
  out << graph.NumVertices() << "\n";
  out.precision(17);
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      if (u < nb.to) out << u << " " << nb.to << " " << nb.weight << "\n";
    }
  }
  if (!out) return Status::IoError("stream write failed");
  return Status::OK();
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return WriteEdgeList(graph, out);
}

}  // namespace dcs
