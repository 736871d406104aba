#include "oracles/exact.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/random_graphs.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;

TEST(ExactDcsadTest, RejectsLargeAndEmptyGraphs) {
  EXPECT_FALSE(ExactDcsadBruteForce(Graph(0)).ok());
  EXPECT_FALSE(ExactDcsadBruteForce(Graph(30)).ok());
  EXPECT_FALSE(ExactDcsadBruteForce(Graph(12), 10).ok());
  EXPECT_TRUE(ExactDcsadBruteForce(Graph(12), 12).ok());
}

TEST(ExactDcsadTest, SingleEdgeOptimum) {
  Graph g = MakeGraph(3, {{0, 1, 4.0}});
  auto result = ExactDcsadBruteForce(g);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->density, 4.0);
  EXPECT_EQ(result->subset, (std::vector<VertexId>{0, 1}));
}

TEST(ExactDcsadTest, AllNegativeGivesSingleton) {
  Graph g = MakeGraph(3, {{0, 1, -1.0}, {1, 2, -5.0}});
  auto result = ExactDcsadBruteForce(g);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->density, 0.0);
  EXPECT_EQ(result->subset.size(), 1u);
}

TEST(ExactDcsadTest, Fig1Optimum) {
  auto result = ExactDcsadBruteForce(Fig1Gd());
  ASSERT_TRUE(result.ok());
  // Verify against direct evaluation of the reported subset.
  EXPECT_NEAR(AverageDegreeDensity(Fig1Gd(), result->subset), result->density,
              1e-12);
  EXPECT_GT(result->density, 0.0);
}

TEST(ExactDcsgaTest, RejectsLargeAndEmptyGraphs) {
  EXPECT_FALSE(ExactDcsgaBruteForce(Graph(0)).ok());
  EXPECT_FALSE(ExactDcsgaBruteForce(Graph(25)).ok());
}

TEST(ExactDcsgaTest, MotzkinStrausOnUnweightedClique) {
  // Max affinity of a k-clique graph is (k−1)/k.
  GraphBuilder builder(6);
  std::vector<VertexId> clique{0, 1, 2, 3};
  ASSERT_TRUE(AddClique(&builder, clique, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5, 1.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = ExactDcsgaBruteForce(*g);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->affinity, 3.0 / 4.0, 1e-9);
  EXPECT_EQ(result->support, clique);
  for (VertexId v : clique) EXPECT_NEAR(result->x[v], 0.25, 1e-9);
}

TEST(ExactDcsgaTest, SingleHeavyEdgeOptimum) {
  // For one edge of weight w the optimum is x = (1/2, 1/2), f = w/2.
  Graph g = MakeGraph(4, {{1, 3, 6.0}, {0, 2, 1.0}});
  auto result = ExactDcsgaBruteForce(g);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->affinity, 3.0, 1e-9);
  EXPECT_EQ(result->support, (std::vector<VertexId>{1, 3}));
}

TEST(ExactDcsgaTest, EdgelessGraphIsTrivial) {
  auto result = ExactDcsgaBruteForce(Graph(4));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->affinity, 0.0);
  EXPECT_EQ(result->support.size(), 1u);
}

TEST(ExactDcsgaTest, SupportIsAlwaysPositiveClique) {
  Rng rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    auto g = RandomSignedGraph(10, 24, 0.6, 0.5, 3.0, &rng);
    ASSERT_TRUE(g.ok());
    auto result = ExactDcsgaBruteForce(*g);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(IsPositiveClique(*g, result->support));
    // x sums to 1 and lives on its support.
    double sum = 0.0;
    for (VertexId v = 0; v < g->NumVertices(); ++v) sum += result->x[v];
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ExactDcsgaTest, AffinityMatchesEmbeddingEvaluation) {
  Rng rng(555);
  auto g = RandomSignedGraph(9, 20, 0.7, 0.5, 3.0, &rng);
  ASSERT_TRUE(g.ok());
  auto result = ExactDcsgaBruteForce(*g);
  ASSERT_TRUE(result.ok());
  double f = 0.0;
  for (VertexId u = 0; u < g->NumVertices(); ++u) {
    for (const Neighbor& nb : g->NeighborsOf(u)) {
      f += result->x[u] * result->x[nb.to] * nb.weight;
    }
  }
  EXPECT_NEAR(f, result->affinity, 1e-9);
}

}  // namespace
}  // namespace dcs
