#include "oracles/goldberg.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "oracles/exact.h"
#include "gen/random_graphs.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

TEST(GoldbergTest, EmptyVertexSetRejected) {
  EXPECT_FALSE(GoldbergDensestSubgraph(Graph(0)).ok());
}

TEST(GoldbergTest, EdgelessGraphHasZeroDensity) {
  auto result = GoldbergDensestSubgraph(Graph(3));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->density, 0.0);
  EXPECT_EQ(result->subset.size(), 1u);
}

TEST(GoldbergTest, NegativeWeightsRejected) {
  Graph g = MakeGraph(2, {{0, 1, -1.0}});
  auto result = GoldbergDensestSubgraph(g);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GoldbergTest, BadToleranceRejected) {
  Graph g = MakeGraph(2, {{0, 1, 1.0}});
  EXPECT_FALSE(GoldbergDensestSubgraph(g, 0.0).ok());
  EXPECT_FALSE(GoldbergDensestSubgraph(g, -1.0).ok());
}

TEST(GoldbergTest, SingleEdge) {
  Graph g = MakeGraph(3, {{0, 1, 2.5}});
  auto result = GoldbergDensestSubgraph(g);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->density, 2.5, 1e-6);
  std::vector<VertexId> subset = result->subset;
  std::sort(subset.begin(), subset.end());
  EXPECT_EQ(subset, (std::vector<VertexId>{0, 1}));
}

TEST(GoldbergTest, CliqueBeatsPendantChain) {
  GraphBuilder builder(8);
  std::vector<VertexId> clique{0, 1, 2, 3, 4};
  ASSERT_TRUE(AddClique(&builder, clique, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(5, 6, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(6, 7, 1.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = GoldbergDensestSubgraph(*g);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->density, 4.0, 1e-6);  // (k−1)·w on the 5-clique
  std::vector<VertexId> subset = result->subset;
  std::sort(subset.begin(), subset.end());
  EXPECT_EQ(subset, clique);
}

TEST(GoldbergTest, WeightedTriangleVersusHeavyEdge) {
  // Triangle of weight 2 (ρ = 4) loses to a single edge of weight 5 (ρ = 5).
  GraphBuilder builder(5);
  std::vector<VertexId> triangle{0, 1, 2};
  ASSERT_TRUE(AddClique(&builder, triangle, 2.0).ok());
  ASSERT_TRUE(builder.AddEdge(3, 4, 5.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = GoldbergDensestSubgraph(*g);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->density, 5.0, 1e-6);
}

class GoldbergVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GoldbergVsBruteForceTest, MatchesSubsetEnumeration) {
  Rng rng(GetParam());
  const VertexId n = 6 + static_cast<VertexId>(rng.NextBounded(7));
  auto g = ErdosRenyiWeighted(n, 0.4, 0.25, 3.0, &rng);
  ASSERT_TRUE(g.ok());
  auto exact_flow = GoldbergDensestSubgraph(*g);
  auto exact_enum = ExactDcsadBruteForce(*g);
  ASSERT_TRUE(exact_flow.ok());
  ASSERT_TRUE(exact_enum.ok());
  EXPECT_NEAR(exact_flow->density, exact_enum->density, 1e-5);
  // The subset the flow solver reports must itself achieve the density.
  EXPECT_NEAR(AverageDegreeDensity(*g, exact_flow->subset),
              exact_flow->density, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldbergVsBruteForceTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38, 39,
                                           40, 41, 42));

}  // namespace
}  // namespace dcs
