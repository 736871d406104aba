// Shared helpers for the libdcs test suites.

#ifndef DCS_TESTS_TEST_UTIL_H_
#define DCS_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "api/mining.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/logging.h"

namespace dcs::testing {

/// Serializes a response's ranked subgraphs at full double precision — the
/// fields the determinism guarantee covers (vertices, embedding weights,
/// value, ratio bound, clique flag). Safe to compare across thread counts:
/// mined subgraphs are parallelism-invariant.
inline std::string SerializeSubgraphs(const MiningResponse& response) {
  std::string out;
  char buf[64];
  for (const std::vector<RankedSubgraph>* list :
       {&response.average_degree, &response.graph_affinity}) {
    for (const RankedSubgraph& s : *list) {
      out += "[";
      for (VertexId v : s.vertices) {
        std::snprintf(buf, sizeof(buf), "%u,", v);
        out += buf;
      }
      out += "|";
      for (double w : s.weights) {
        std::snprintf(buf, sizeof(buf), "%.17g,", w);
        out += buf;
      }
      std::snprintf(buf, sizeof(buf), "|v=%.17g|r=%.17g|c=%d]", s.value,
                    s.ratio_bound, s.positive_clique ? 1 : 0);
      out += buf;
    }
    out += ";";
  }
  return out;
}

/// SerializeSubgraphs plus every deterministic telemetry field (wall times
/// are the documented exception). Only meaningful when the solve's work
/// counters are timing-independent — i.e. sequential seed loops
/// (ga_solver.parallelism == 1); with intra-request sharding the counters
/// legitimately vary, use SerializeSubgraphs instead.
inline std::string SerializeDeterministic(const MiningResponse& response) {
  std::string out = SerializeSubgraphs(response);
  char buf[96];
  std::snprintf(
      buf, sizeof(buf), "T:%llu,%llu,%llu,%llu,%u,%d,%d",
      static_cast<unsigned long long>(response.telemetry.initializations),
      static_cast<unsigned long long>(response.telemetry.pruned_seeds),
      static_cast<unsigned long long>(response.telemetry.cd_iterations),
      static_cast<unsigned long long>(response.telemetry.replicator_sweeps),
      response.telemetry.expansion_errors,
      response.telemetry.reused_cached_difference ? 1 : 0,
      response.telemetry.warm_start_used ? 1 : 0);
  out += buf;
  return out;
}

/// Builds a graph from (u, v, w) triples; aborts on invalid input.
inline Graph MakeGraph(VertexId n,
                       const std::vector<std::tuple<VertexId, VertexId, double>>&
                           edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v, w] : edges) builder.AddEdgeUnchecked(u, v, w);
  Result<Graph> graph = builder.Build();
  DCS_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

/// G1 modeled on the paper's Fig. 1 (5 vertices; ids v1..v5 -> 0..4; exact
/// figure weights are not recoverable from the text, but the §III-C detail
/// that edge (v1,v2) exists only in G2 is preserved).
inline Graph Fig1G1() {
  return MakeGraph(5, {{1, 2, 2.0},
                       {0, 3, 1.0},
                       {2, 3, 3.0},
                       {3, 4, 2.0},
                       {0, 4, 2.0}});
}

/// G2 modeled on the paper's Fig. 1.
inline Graph Fig1G2() {
  return MakeGraph(5, {{0, 1, 4.0},
                       {1, 2, 5.0},
                       {0, 3, 2.0},
                       {2, 3, 1.0},
                       {3, 4, 6.0},
                       {0, 4, 1.0}});
}

/// The resulting difference graph GD = G2 − G1:
///   (0,1)=+4, (1,2)=+3, (0,3)=+1, (2,3)=−2, (3,4)=+4, (0,4)=−1.
inline Graph Fig1Gd() {
  Result<Graph> gd = BuildDifferenceGraph(Fig1G1(), Fig1G2());
  DCS_CHECK(gd.ok());
  return std::move(gd).value();
}

/// The Theorem 1 hardness reduction: given an unweighted graph G (max-clique
/// instance), G1 = complement with weight |E|+1, G2 = G with weight 1. The
/// optimal DCSAD density equals (max clique size) − 1.
struct HardnessReduction {
  Graph g1;
  Graph g2;
};

inline HardnessReduction MakeHardnessReduction(
    VertexId n, const std::vector<std::pair<VertexId, VertexId>>& clique_edges) {
  GraphBuilder g2_builder(n);
  std::vector<std::vector<char>> adjacent(n, std::vector<char>(n, 0));
  for (const auto& [u, v] : clique_edges) {
    g2_builder.AddEdgeUnchecked(u, v, 1.0);
    adjacent[u][v] = adjacent[v][u] = 1;
  }
  const double penalty = static_cast<double>(clique_edges.size()) + 1.0;
  GraphBuilder g1_builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!adjacent[u][v]) g1_builder.AddEdgeUnchecked(u, v, penalty);
    }
  }
  HardnessReduction out{Graph(0), Graph(0)};
  Result<Graph> g1 = g1_builder.Build();
  Result<Graph> g2 = g2_builder.Build();
  DCS_CHECK(g1.ok() && g2.ok());
  out.g1 = std::move(g1).value();
  out.g2 = std::move(g2).value();
  return out;
}

}  // namespace dcs::testing

#endif  // DCS_TESTS_TEST_UTIL_H_
