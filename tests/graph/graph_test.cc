#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gen/random_graphs.h"
#include "graph/csr_patcher.h"
#include "graph/graph_builder.h"
#include "graph/serialize.h"
#include "oracles/naive_pipeline.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;
using ::dcs::testing::NaivePositivePart;
using ::dcs::testing::NaiveWeightsClampedAbove;
using ::dcs::testing::SameGraphBits;

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, IsolatedVertices) {
  Graph g(5);
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.Degree(v), 0u);
    EXPECT_DOUBLE_EQ(g.WeightedDegree(v), 0.0);
  }
}

TEST(GraphTest, BasicAdjacency) {
  Graph g = MakeGraph(4, {{0, 1, 2.0}, {1, 2, -3.0}, {0, 3, 1.0}});
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 2.0);  // symmetric
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), -3.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 3), 0.0);  // absent
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, AdjacencyIsSorted) {
  Graph g = MakeGraph(5, {{2, 4, 1.0}, {2, 0, 1.0}, {2, 3, 1.0}, {2, 1, 1.0}});
  auto row = g.NeighborsOf(2);
  ASSERT_EQ(row.size(), 4u);
  for (size_t i = 1; i < row.size(); ++i) EXPECT_LT(row[i - 1].to, row[i].to);

  // GraphBuilder fills rows in merged (u, v) order and never sorts them:
  // edges added in shuffled order, each in a random orientation, must still
  // come out as sorted rows holding exactly the added pairs.
  for (const uint64_t seed : {3u, 29u, 101u}) {
    Rng rng(seed);
    const VertexId n = 40;
    std::vector<double> weight_of(size_t{n} * n, 0.0);
    std::vector<Edge> edges;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (!rng.Bernoulli(0.2)) continue;
        const double w = rng.Uniform(-2.0, 2.0);
        if (w == 0.0) continue;
        edges.push_back(Edge{u, v, w});
        weight_of[size_t{u} * n + v] = weight_of[size_t{v} * n + u] = w;
      }
    }
    for (size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
    }
    GraphBuilder builder(n);
    for (const Edge& e : edges) {
      if (rng.Bernoulli(0.5)) {
        builder.AddEdgeUnchecked(e.v, e.u, e.weight);
      } else {
        builder.AddEdgeUnchecked(e.u, e.v, e.weight);
      }
    }
    Result<Graph> built = builder.Build(/*zero_eps=*/0.0);
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(built->NumEdges(), edges.size());
    for (VertexId u = 0; u < n; ++u) {
      const NeighborRow row_u = built->NeighborsOf(u);
      size_t expected_degree = 0;
      for (VertexId v = 0; v < n; ++v) {
        expected_degree += weight_of[size_t{u} * n + v] != 0.0 ? 1 : 0;
      }
      ASSERT_EQ(row_u.size(), expected_degree) << "seed " << seed << " row " << u;
      for (size_t i = 0; i < row_u.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(row_u[i - 1].to, row_u[i].to) << "seed " << seed << " row " << u;
        }
        EXPECT_EQ(row_u[i].weight, weight_of[size_t{u} * n + row_u[i].to]);
      }
    }
  }
}

TEST(GraphTest, WeightedDegreeSumsIncidentWeights) {
  Graph g = MakeGraph(3, {{0, 1, 2.5}, {0, 2, -1.0}});
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 1.5);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 2.5);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(2), -1.0);
}

TEST(GraphTest, UndirectedEdgesListsEachEdgeOnce) {
  Graph g = MakeGraph(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}});
  auto edges = g.UndirectedEdges();
  ASSERT_EQ(edges.size(), 3u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(GraphTest, WeightStats) {
  Graph g = MakeGraph(4, {{0, 1, 3.0}, {1, 2, -2.0}, {2, 3, 1.0}});
  const WeightStats stats = g.ComputeWeightStats();
  EXPECT_EQ(stats.num_positive_edges, 2u);
  EXPECT_EQ(stats.num_negative_edges, 1u);
  EXPECT_DOUBLE_EQ(stats.max_weight, 3.0);
  EXPECT_DOUBLE_EQ(stats.min_weight, -2.0);
  EXPECT_NEAR(stats.mean_weight, 2.0 / 3.0, 1e-12);
}

TEST(GraphTest, WeightStatsEmptyGraph) {
  Graph g(3);
  const WeightStats stats = g.ComputeWeightStats();
  EXPECT_EQ(stats.num_positive_edges, 0u);
  EXPECT_DOUBLE_EQ(stats.max_weight, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_weight, 0.0);
}

TEST(GraphTest, PositivePartDropsNegativeEdges) {
  Graph gd = MakeGraph(4, {{0, 1, 2.0}, {1, 2, -1.0}, {2, 3, 0.5}});
  Graph gd_plus = gd.PositivePart();
  EXPECT_EQ(gd_plus.NumVertices(), 4u);
  EXPECT_EQ(gd_plus.NumEdges(), 2u);
  EXPECT_TRUE(gd_plus.HasEdge(0, 1));
  EXPECT_FALSE(gd_plus.HasEdge(1, 2));
  EXPECT_TRUE(gd_plus.HasEdge(2, 3));
}

TEST(GraphTest, PositivePartKeepsAdjacencySorted) {
  Graph gd = MakeGraph(5, {{2, 0, 1.0}, {2, 1, -1.0}, {2, 3, 2.0}, {2, 4, -2.0}});
  Graph gd_plus = gd.PositivePart();
  auto row = gd_plus.NeighborsOf(2);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].to, 0u);
  EXPECT_EQ(row[1].to, 3u);
}

TEST(GraphTest, WeightsClampedAbove) {
  Graph g = MakeGraph(3, {{0, 1, 100.0}, {1, 2, 5.0}});
  Graph clamped = g.WeightsClampedAbove(10.0);
  EXPECT_DOUBLE_EQ(clamped.EdgeWeight(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(clamped.EdgeWeight(1, 2), 5.0);
}

TEST(GraphKernelsTest, PositivePartTwinMatchesReference) {
  for (const uint64_t seed : {11u, 47u}) {
    Rng rng(seed);
    Result<Graph> gd = RandomSignedGraph(250, 2000, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(gd.ok());
    EXPECT_TRUE(SameGraphBits(NaivePositivePart(*gd), gd->PositivePart()));
  }
  // Edge cases: empty graph, all-negative rows (everything dropped) and an
  // isolated middle vertex.
  EXPECT_TRUE(SameGraphBits(NaivePositivePart(Graph(5)),
                            Graph(5).PositivePart()));
  const Graph negative =
      MakeGraph(4, {{0, 1, -2.0}, {1, 2, -0.5}, {2, 3, -1.0}});
  EXPECT_TRUE(
      SameGraphBits(NaivePositivePart(negative), negative.PositivePart()));
  EXPECT_EQ(negative.PositivePart().NumEdges(), 0u);
  const Graph mixed = MakeGraph(5, {{0, 1, 3.0}, {0, 3, -1.0}, {3, 4, 2.0}});
  EXPECT_TRUE(SameGraphBits(NaivePositivePart(mixed), mixed.PositivePart()));
}

TEST(GraphKernelsTest, ClampTwinMatchesReference) {
  Rng rng(23);
  Result<Graph> gd = RandomSignedGraph(200, 1500, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  for (const double cap : {0.75, 2.0, 100.0}) {
    EXPECT_TRUE(SameGraphBits(NaiveWeightsClampedAbove(*gd, cap),
                              gd->WeightsClampedAbove(cap)))
        << "cap " << cap;
  }
}

TEST(GraphTest, MaxIncidentWeightPerVertex) {
  Graph g = MakeGraph(4, {{0, 1, 2.0}, {0, 2, 5.0}, {1, 2, 1.0}});
  auto best = g.MaxIncidentWeightPerVertex();
  EXPECT_DOUBLE_EQ(best[0], 5.0);
  EXPECT_DOUBLE_EQ(best[1], 2.0);
  EXPECT_DOUBLE_EQ(best[2], 5.0);
  EXPECT_TRUE(std::isinf(best[3]));
  EXPECT_LT(best[3], 0.0);
}

TEST(GraphTest, DebugStringMentionsCounts) {
  Graph g = MakeGraph(3, {{0, 1, 1.0}, {1, 2, -1.0}});
  const std::string s = g.DebugString();
  EXPECT_NE(s.find("n=3"), std::string::npos);
  EXPECT_NE(s.find("m=2"), std::string::npos);
  EXPECT_NE(s.find("m+=1"), std::string::npos);
  EXPECT_NE(s.find("m-=1"), std::string::npos);
}

// ---- GraphBuilder ----

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(1, 1, 1.0).IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsOutOfRange) {
  GraphBuilder builder(3);
  EXPECT_EQ(builder.AddEdge(0, 3, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(builder.AddEdge(7, 0, 1.0).code(), StatusCode::kOutOfRange);
}

TEST(GraphBuilderTest, RejectsNonFiniteWeights) {
  GraphBuilder builder(3);
  EXPECT_TRUE(
      builder.AddEdge(0, 1, std::numeric_limits<double>::infinity())
          .IsInvalidArgument());
  EXPECT_TRUE(
      builder.AddEdge(0, 1, std::nan("")).IsInvalidArgument());
}

TEST(GraphBuilderTest, AccumulatesDuplicateEdges) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0, 2.5).ok());  // same undirected edge
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 1), 4.0);
}

TEST(GraphBuilderTest, DropsCancelledEdges) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, -2.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_FALSE(g->HasEdge(0, 1));
}

TEST(GraphBuilderTest, ZeroEpsThresholdIsConfigurable) {
  GraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1e-9).ok());
  auto g_loose = builder.Build(/*zero_eps=*/1e-6);
  ASSERT_TRUE(g_loose.ok());
  EXPECT_EQ(g_loose->NumEdges(), 0u);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1e-9).ok());
  auto g_tight = builder.Build(/*zero_eps=*/0.0);
  ASSERT_TRUE(g_tight.ok());
  EXPECT_EQ(g_tight->NumEdges(), 1u);
}

TEST(GraphBuilderTest, InvalidZeroEpsRejected) {
  GraphBuilder builder(2);
  EXPECT_FALSE(builder.Build(-1.0).ok());
  EXPECT_FALSE(builder.Build(std::nan("")).ok());
}

TEST(GraphBuilderTest, BuilderIsReusableAfterBuild) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  auto g1 = builder.Build();
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(builder.NumQueuedEntries(), 0u);
  ASSERT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  auto g2 = builder.Build();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->NumEdges(), 1u);
  EXPECT_TRUE(g2->HasEdge(1, 2));
  EXPECT_FALSE(g2->HasEdge(0, 1));
}

TEST(GraphBuilderTest, SymmetryInvariant) {
  Graph g = MakeGraph(6, {{0, 5, 1.0}, {3, 2, -2.0}, {4, 1, 0.5}});
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const Neighbor& nb : g.NeighborsOf(u)) {
      EXPECT_DOUBLE_EQ(g.EdgeWeight(nb.to, u), nb.weight);
    }
  }
}

// --- zero-weight edge semantics audit ---------------------------------------
//
// "Zero weight" means "no edge" at every layer: HasEdge is literally
// EdgeWeight != 0.0 (graph.h), which only stays truthful because no
// construction path can materialize a stored zero-weight Neighbor —
// GraphBuilder::Build and CsrPatcher::Apply both drop |w| <= zero_eps, and
// the binary serializer rejects zero-weight halves on parse. These tests pin
// the agreement between the layers.

TEST(ZeroWeightSemanticsTest, BuilderCancellationAgreesWithHasEdge) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 2.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0, -2.5).ok());  // cancels to exactly 0
  ASSERT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  Result<Graph> g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_FALSE(g->HasEdge(0, 1));
  EXPECT_FALSE(g->HasEdge(1, 0));
  EXPECT_EQ(g->EdgeWeight(0, 1), 0.0);
  EXPECT_EQ(g->Degree(0), 0u);
  EXPECT_TRUE(g->HasEdge(1, 2));
  // Sub-epsilon residue counts as zero too (the kDefaultZeroEps rule).
  GraphBuilder residue(2);
  ASSERT_TRUE(residue.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(residue.AddEdge(0, 1, -1.0 + 1e-13).ok());
  Result<Graph> r = residue.Build();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumEdges(), 0u);
  EXPECT_FALSE(r->HasEdge(0, 1));
}

TEST(ZeroWeightSemanticsTest, PatchToZeroRemovesTheEdgeEverywhere) {
  const Graph base = MakeGraph(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, -0.5}});
  uint64_t accumulator = base.ContentAccumulator();

  // Patch (0,1) to exact 0.0 and (2,3) to -0.0: both must drop.
  const std::vector<EdgePatch> patches = {{0, 1, 0.0}, {2, 3, -0.0}};
  const Graph patched =
      CsrPatcher::Apply(base, patches, kDefaultZeroEps, &accumulator);

  EXPECT_EQ(patched.NumEdges(), 1u);
  EXPECT_FALSE(patched.HasEdge(0, 1));
  EXPECT_EQ(patched.EdgeWeight(0, 1), 0.0);
  EXPECT_FALSE(patched.HasEdge(2, 3));
  EXPECT_EQ(patched.Degree(0), 0u);
  EXPECT_EQ(patched.Degree(3), 0u);
  EXPECT_TRUE(patched.HasEdge(1, 2));

  // The patched graph, its O(Δ)-maintained fingerprint, and a from-scratch
  // rebuild of the surviving edge all agree.
  const Graph rebuilt = MakeGraph(4, {{1, 2, 2.0}});
  EXPECT_EQ(patched.ContentFingerprint(), rebuilt.ContentFingerprint());
  EXPECT_EQ(Graph::FingerprintFromAccumulator(patched.NumVertices(),
                                              accumulator),
            patched.ContentFingerprint());
}

TEST(ZeroWeightSemanticsTest, SerializeRoundTripAfterPatchToZero) {
  const Graph base = MakeGraph(3, {{0, 1, 1.5}, {1, 2, -2.25}});
  const std::vector<EdgePatch> patches = {{0, 1, 0.0}};
  const Graph patched = CsrPatcher::Apply(base, patches);

  std::string bytes;
  AppendGraphBytes(patched, &bytes);
  size_t cursor = 0;
  Result<Graph> parsed = ParseGraphBytes(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()),
      &cursor);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(cursor, bytes.size());
  EXPECT_EQ(parsed->ContentFingerprint(), patched.ContentFingerprint());
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 0; v < 3; ++v) {
      if (u == v) continue;
      EXPECT_EQ(parsed->HasEdge(u, v), patched.HasEdge(u, v))
          << u << "," << v;
      EXPECT_EQ(parsed->EdgeWeight(u, v), patched.EdgeWeight(u, v));
    }
  }
  EXPECT_FALSE(parsed->HasEdge(0, 1));
  EXPECT_TRUE(parsed->HasEdge(1, 2));
}

}  // namespace
}  // namespace dcs
