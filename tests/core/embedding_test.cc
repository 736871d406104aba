#include "core/embedding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gen/random_graphs.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;

TEST(EmbeddingTest, UnitVector) {
  Embedding e = Embedding::UnitVector(4, 2);
  EXPECT_DOUBLE_EQ(e.x[2], 1.0);
  EXPECT_DOUBLE_EQ(e.Sum(), 1.0);
  EXPECT_TRUE(e.IsOnSimplex());
  EXPECT_EQ(e.Support(), (std::vector<VertexId>{2}));
}

TEST(EmbeddingTest, UniformOn) {
  std::vector<VertexId> members{0, 3};
  Embedding e = Embedding::UniformOn(5, members);
  EXPECT_DOUBLE_EQ(e.x[0], 0.5);
  EXPECT_DOUBLE_EQ(e.x[3], 0.5);
  EXPECT_TRUE(e.IsOnSimplex());
}

TEST(EmbeddingTest, SimplexValidation) {
  Embedding e = Embedding::Zeros(3);
  EXPECT_FALSE(e.IsOnSimplex());  // sums to 0
  e.x = {0.5, 0.6, 0.0};
  EXPECT_FALSE(e.IsOnSimplex());  // sums to 1.1
  e.x = {1.5, -0.5, 0.0};
  EXPECT_FALSE(e.IsOnSimplex());  // negative entry
  e.x = {0.25, 0.25, 0.5};
  EXPECT_TRUE(e.IsOnSimplex());
}

TEST(EmbeddingTest, AffinityOfSingleEdgePair) {
  Graph g = MakeGraph(3, {{0, 1, 6.0}});
  Embedding e = Embedding::UniformOn(3, std::vector<VertexId>{0, 1});
  EXPECT_DOUBLE_EQ(e.Affinity(g), 3.0);  // 2·(1/2)(1/2)·6
}

TEST(EmbeddingTest, AffinityOfUnweightedClique) {
  GraphBuilder builder(5);
  std::vector<VertexId> clique{0, 1, 2, 3, 4};
  ASSERT_TRUE(AddClique(&builder, clique, 1.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  Embedding e = Embedding::UniformOn(5, clique);
  EXPECT_NEAR(e.Affinity(*g), 4.0 / 5.0, 1e-12);  // Motzkin–Straus
}

TEST(EmbeddingTest, AffinityWithNegativeEdges) {
  Graph gd = Fig1Gd();
  Embedding e = Embedding::UniformOn(5, std::vector<VertexId>{2, 3});
  EXPECT_DOUBLE_EQ(e.Affinity(gd), -1.0);  // 2·(1/2)(1/2)·(−2)
}

// ---- AffinityState ----

TEST(AffinityStateTest, ResetToVertex) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  state.ResetToVertex(1);
  EXPECT_DOUBLE_EQ(state.x(1), 1.0);
  EXPECT_DOUBLE_EQ(state.Affinity(), 0.0);
  ASSERT_EQ(state.support().size(), 1u);
  EXPECT_EQ(state.support()[0], 1u);
  // dx reflects edges incident to vertex 1: (0,1)=4, (1,2)=3.
  EXPECT_DOUBLE_EQ(state.dx(0), 4.0);
  EXPECT_DOUBLE_EQ(state.dx(2), 3.0);
  EXPECT_DOUBLE_EQ(state.dx(1), 0.0);
}

TEST(AffinityStateTest, ResetClearsPreviousRun) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  state.ResetToVertex(1);
  state.SetX(1, 0.5);
  state.SetX(0, 0.5);
  state.ResetToVertex(4);
  EXPECT_DOUBLE_EQ(state.x(0), 0.0);
  EXPECT_DOUBLE_EQ(state.x(1), 0.0);
  EXPECT_DOUBLE_EQ(state.dx(0), -1.0);  // only edge (0,4) = −1 now
  EXPECT_DOUBLE_EQ(state.dx(2), 0.0);
  EXPECT_EQ(state.support().size(), 1u);
}

TEST(AffinityStateTest, ResetToEmbeddingValidates) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  Embedding bad = Embedding::Zeros(5);
  EXPECT_FALSE(state.ResetToEmbedding(bad).ok());
  Embedding wrong_size = Embedding::UnitVector(4, 0);
  EXPECT_FALSE(state.ResetToEmbedding(wrong_size).ok());
  Embedding good = Embedding::UniformOn(5, std::vector<VertexId>{0, 1});
  EXPECT_TRUE(state.ResetToEmbedding(good).ok());
  EXPECT_DOUBLE_EQ(state.Affinity(), 2.0);  // 2·(1/2)(1/2)·4
}

TEST(AffinityStateTest, IncrementalDxMatchesNaiveRecomputation) {
  Rng rng(314);
  auto g = RandomSignedGraph(25, 80, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(g.ok());
  AffinityState state(*g);
  state.ResetToVertex(0);
  // Random walk of SetX operations keeping entries non-negative.
  std::vector<double> x(25, 0.0);
  x[0] = 1.0;
  for (int step = 0; step < 200; ++step) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(25));
    const double value = rng.NextDouble();
    state.SetX(v, value);
    x[v] = value;
  }
  for (VertexId v = 0; v < 25; ++v) {
    double expected_dx = 0.0;
    for (const Neighbor& nb : g->NeighborsOf(v)) {
      expected_dx += nb.weight * x[nb.to];
    }
    EXPECT_NEAR(state.dx(v), expected_dx, 1e-9) << "vertex " << v;
  }
  // Affinity consistent with the embedding evaluation.
  EXPECT_NEAR(state.Affinity(), state.ToEmbedding().Affinity(*g), 1e-9);
}

TEST(AffinityStateTest, SupportTracksPositiveEntries) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  state.ResetToVertex(0);
  state.SetX(1, 0.3);
  state.SetX(2, 0.2);
  state.SetX(1, 0.0);
  std::vector<VertexId> support(state.support().begin(),
                                state.support().end());
  std::sort(support.begin(), support.end());
  EXPECT_EQ(support, (std::vector<VertexId>{0, 2}));
}

TEST(AffinityStateTest, RenormalizeRestoresSimplex) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  state.ResetToVertex(0);
  state.SetX(1, 0.6);  // sum now 1.6
  state.Renormalize();
  Embedding e = state.ToEmbedding();
  EXPECT_TRUE(e.IsOnSimplex(1e-9));
  EXPECT_NEAR(state.x(0), 1.0 / 1.6, 1e-12);
  // dx scaled coherently.
  EXPECT_NEAR(state.Affinity(), e.Affinity(gd), 1e-12);
}

TEST(AffinityStateTest, ResetIsExactEvenAfterSupportChurn) {
  // The parallel NewSEA determinism proof needs reset to be *exact*: after
  // ResetToVertex the state must be bit-identical to a fresh one, including
  // dx entries adjacent to vertices that entered and then left the support —
  // where incremental ±w·x updates and renormalize scalings can leave
  // last-ulp residue that the support-only sweep of the old reset missed.
  Rng rng(3);
  Result<Graph> graph = ErdosRenyiWeighted(60, 0.1, 0.3, 2.7, &rng);
  ASSERT_TRUE(graph.ok());
  AffinityState churned(*graph);
  // Churn: spread mass, renormalize (scales x and dx differently in ulp
  // terms), then squeeze vertices back out of the support.
  for (VertexId v = 0; v < 20; ++v) churned.SetX(v, 0.05 * (v % 3 + 1));
  churned.Renormalize();
  for (VertexId v = 5; v < 20; ++v) churned.SetX(v, 0.0);
  churned.Renormalize();
  churned.ResetToVertex(2);

  AffinityState fresh(*graph);
  fresh.ResetToVertex(2);
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    EXPECT_EQ(churned.x(v), fresh.x(v)) << "x at " << v;
    EXPECT_EQ(churned.dx(v), fresh.dx(v)) << "dx at " << v;
  }
  EXPECT_EQ(std::vector<VertexId>(churned.support().begin(),
                                  churned.support().end()),
            std::vector<VertexId>(fresh.support().begin(),
                                  fresh.support().end()));
}

TEST(AffinityStateTest, ComputeExtremes) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  state.ResetToVertex(3);
  state.SetX(3, 0.5);
  state.SetX(4, 0.5);
  // Gradients: ∇_v = 2·dx_v.
  std::vector<VertexId> candidates{3, 4};
  GradExtremes ext;
  ASSERT_TRUE(state.ComputeExtremes(candidates, &ext));
  EXPECT_DOUBLE_EQ(ext.max_grad, std::max(2.0 * state.dx(3), 2.0 * state.dx(4)));
  EXPECT_DOUBLE_EQ(ext.min_grad, std::min(2.0 * state.dx(3), 2.0 * state.dx(4)));
}

TEST(AffinityStateTest, ComputeExtremesEmptyCandidates) {
  Graph gd = Fig1Gd();
  AffinityState state(gd);
  state.ResetToVertex(0);
  GradExtremes ext;
  EXPECT_FALSE(state.ComputeExtremes(std::vector<VertexId>{}, &ext));
}

}  // namespace
}  // namespace dcs
