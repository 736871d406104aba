#include "core/seacd.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/coordinate_descent.h"
#include "oracles/exact.h"
#include "gen/random_graphs.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

TEST(SeacdTest, RejectsBadInputs) {
  Graph g = MakeGraph(3, {{0, 1, 1.0}});
  Embedding off_simplex = Embedding::Zeros(3);
  EXPECT_FALSE(RunSeacd(g, off_simplex).ok());
  EXPECT_FALSE(RunSeacdFromVertex(g, 99).ok());
}

TEST(SeacdTest, IsolatedSeedStaysTrivial) {
  Graph g = MakeGraph(3, {{0, 1, 2.0}});
  auto result = RunSeacdFromVertex(g, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_DOUBLE_EQ(result->affinity, 0.0);
  EXPECT_EQ(result->x.Support(), (std::vector<VertexId>{2}));
}

TEST(SeacdTest, SingleEdgeConvergesToHalfWeight) {
  Graph g = MakeGraph(2, {{0, 1, 5.0}});
  auto result = RunSeacdFromVertex(g, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->affinity, 2.5, 1e-3);
  EXPECT_EQ(result->x.Support().size(), 2u);
}

TEST(SeacdTest, UnweightedCliqueReachesMotzkinStrausValue) {
  GraphBuilder builder(6);
  std::vector<VertexId> clique{0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(AddClique(&builder, clique, 1.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = RunSeacdFromVertex(*g, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->affinity, 5.0 / 6.0, 1e-3);
  EXPECT_EQ(result->x.Support().size(), 6u);
}

TEST(SeacdTest, FindsPlantedHeavyClique) {
  Rng rng(7);
  GraphBuilder builder(40);
  auto noise = ErdosRenyiWeighted(40, 0.08, 0.2, 0.6, &rng);
  ASSERT_TRUE(noise.ok());
  for (const Edge& e : noise->UndirectedEdges()) {
    ASSERT_TRUE(builder.AddEdge(e.u, e.v, e.weight).ok());
  }
  std::vector<VertexId> planted{4, 11, 23, 31};
  ASSERT_TRUE(AddClique(&builder, planted, 5.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = RunSeacdFromVertex(*g, 4);
  ASSERT_TRUE(result.ok());
  std::vector<VertexId> support = result->x.Support();
  for (VertexId v : planted) {
    EXPECT_NE(std::find(support.begin(), support.end(), v), support.end());
  }
  // Affinity at least the planted clique's uniform-embedding value.
  EXPECT_GE(result->affinity, 3.0 / 4.0 * 5.0 - 1e-6);
}

TEST(SeacdTest, ResultSatisfiesGlobalKkt) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    auto g = ErdosRenyiWeighted(20, 0.25, 0.5, 3.0, &rng);
    ASSERT_TRUE(g.ok());
    SeacdOptions options;
    options.descent.epsilon_scale = 1e-8;
    auto result =
        RunSeacdFromVertex(*g, static_cast<VertexId>(rng.NextBounded(20)),
                           options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->converged);
    AffinityState state(*g);
    ASSERT_TRUE(state.ResetToEmbedding(result->x).ok());
    EXPECT_TRUE(SatisfiesKkt(state, 1e-4));
  }
}

TEST(SeacdTest, ObjectiveAtLeastSeedEgoValue) {
  // Starting from u, SEACD expands through u's edges; final f must at least
  // match u's best single edge (x = (1/2,1/2) on it gives w/2... SEACD's
  // first expansion covers all of it). Weak but useful sanity bound: f >= 0.
  Rng rng(1717);
  auto g = RandomSignedGraph(30, 90, 0.7, 0.5, 3.0, &rng);
  ASSERT_TRUE(g.ok());
  Graph gd_plus = g->PositivePart();
  for (VertexId seed = 0; seed < 30; seed += 5) {
    auto result = RunSeacdFromVertex(gd_plus, seed);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->affinity, 0.0);
  }
}

// Cross-check against the exact brute-force DCSGA oracle: the best SEACD
// result over all seeds must come close to the global optimum on tiny
// graphs (local search can in principle miss it, but with every seed tried
// and refinement-free cliques this holds on these instances).
class SeacdVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeacdVsExactTest, BestSeedNearOptimal) {
  Rng rng(GetParam());
  auto g = ErdosRenyiWeighted(10, 0.4, 0.5, 2.5, &rng);
  ASSERT_TRUE(g.ok());
  auto exact = ExactDcsgaBruteForce(*g);
  ASSERT_TRUE(exact.ok());
  double best = 0.0;
  for (VertexId seed = 0; seed < 10; ++seed) {
    SeacdOptions options;
    options.descent.epsilon_scale = 1e-9;
    auto result = RunSeacdFromVertex(*g, seed, options);
    ASSERT_TRUE(result.ok());
    best = std::max(best, result->affinity);
  }
  EXPECT_LE(best, exact->affinity + 1e-6);   // never exceeds the optimum
  EXPECT_GE(best, 0.85 * exact->affinity - 1e-9);  // and comes close
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeacdVsExactTest,
                         ::testing::Values(51, 52, 53, 54, 55, 56, 57, 58, 59,
                                           60));

}  // namespace
}  // namespace dcs
