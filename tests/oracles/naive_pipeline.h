// Naive references for the pipeline's graph steps — the difference graph
// D = A2 − α·A1 (§III-B), the Discrete-setting map (§VI-B), the heavy-edge
// clamp (§III-D) and GD+ (Table I). Each one emits every undirected edge
// once (u < v) through GraphBuilder, which sorts, mirrors and canonicalizes
// the CSR. The graph/ bodies write their CSR directly and must reproduce
// these graphs bit for bit.

#ifndef DCS_TESTS_ORACLES_NAIVE_PIPELINE_H_
#define DCS_TESTS_ORACLES_NAIVE_PIPELINE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "graph/difference.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/status.h"

namespace dcs::testing {

/// D = A2 − alpha·A1: merges the sorted rows of every vertex, emits each
/// pair with d != 0 once, and lets GraphBuilder::Build drop
/// |d| <= kDefaultZeroEps.
inline Result<Graph> NaiveDifferenceGraph(const Graph& g1, const Graph& g2,
                                          double alpha = 1.0) {
  if (g1.NumVertices() != g2.NumVertices()) {
    return Status::InvalidArgument(
        "difference graph requires equal vertex sets: n1=" +
        std::to_string(g1.NumVertices()) +
        " n2=" + std::to_string(g2.NumVertices()));
  }
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be finite and positive");
  }
  const VertexId n = g1.NumVertices();
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    auto row1 = g1.NeighborsOf(u);
    auto row2 = g2.NeighborsOf(u);
    size_t i = 0, j = 0;
    while (i < row1.size() || j < row2.size()) {
      VertexId v;
      double d;
      if (j == row2.size() || (i < row1.size() && row1[i].to < row2[j].to)) {
        v = row1[i].to;
        d = -alpha * row1[i].weight;
        ++i;
      } else if (i == row1.size() || row2[j].to < row1[i].to) {
        v = row2[j].to;
        d = row2[j].weight;
        ++j;
      } else {
        v = row1[i].to;
        d = row2[j].weight - alpha * row1[i].weight;
        ++i;
        ++j;
      }
      if (u < v && d != 0.0) {
        DCS_RETURN_NOT_OK(builder.AddEdge(u, v, d));
      }
    }
  }
  return builder.Build();
}

/// spec.Map over every edge; a mapped 0 is not emitted and the builder
/// drops |level| <= kDefaultZeroEps.
inline Result<Graph> NaiveDiscretizeWeights(const Graph& gd,
                                            const DiscretizeSpec& spec) {
  DCS_RETURN_NOT_OK(spec.Validate());
  GraphBuilder builder(gd.NumVertices());
  for (const Edge& e : gd.UndirectedEdges()) {
    const double mapped = spec.Map(e.weight);
    if (mapped != 0.0) DCS_RETURN_NOT_OK(builder.AddEdge(e.u, e.v, mapped));
  }
  return builder.Build();
}

/// The edges with weight > 0, however small (zero_eps = 0).
inline Graph NaivePositivePart(const Graph& gd) {
  GraphBuilder builder(gd.NumVertices());
  for (const Edge& e : gd.UndirectedEdges()) {
    if (e.weight > 0.0) builder.AddEdgeUnchecked(e.u, e.v, e.weight);
  }
  Result<Graph> out = builder.Build(/*zero_eps=*/0.0);
  DCS_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

/// Every weight w replaced by std::min(w, cap); nothing is dropped.
inline Graph NaiveWeightsClampedAbove(const Graph& gd, double cap) {
  GraphBuilder builder(gd.NumVertices());
  for (const Edge& e : gd.UndirectedEdges()) {
    builder.AddEdgeUnchecked(e.u, e.v, std::min(e.weight, cap));
  }
  Result<Graph> out = builder.Build(/*zero_eps=*/0.0);
  DCS_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

/// True iff `a` and `b` have the same vertex count, rows and weight bit
/// patterns, and equal ContentFingerprint.
inline bool SameGraphBits(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    const auto row_a = a.NeighborsOf(u);
    const auto row_b = b.NeighborsOf(u);
    if (row_a.size() != row_b.size()) return false;
    for (size_t i = 0; i < row_a.size(); ++i) {
      if (row_a[i].to != row_b[i].to ||
          std::memcmp(&row_a.weights()[i], &row_b.weights()[i], sizeof(double)) !=
              0) {
        return false;
      }
    }
  }
  return a.ContentFingerprint() == b.ContentFingerprint();
}

}  // namespace dcs::testing

#endif  // DCS_TESTS_ORACLES_NAIVE_PIPELINE_H_
