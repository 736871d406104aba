#include "core/dcs_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "oracles/exact.h"
#include "gen/random_graphs.h"
#include "graph/components.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::MakeHardnessReduction;

TEST(DcsGreedyTest, EmptyGraphRejected) {
  EXPECT_FALSE(RunDcsGreedy(Graph(0)).ok());
}

TEST(DcsGreedyTest, NoPositiveEdgeYieldsSingleton) {
  Graph gd = MakeGraph(3, {{0, 1, -1.0}, {1, 2, -2.0}});
  auto result = RunDcsGreedy(gd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset.size(), 1u);
  EXPECT_DOUBLE_EQ(result->density, 0.0);
  EXPECT_DOUBLE_EQ(result->ratio_bound, 1.0);
}

TEST(DcsGreedyTest, EdgelessGraphYieldsSingleton) {
  auto result = RunDcsGreedy(Graph(4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset.size(), 1u);
  EXPECT_DOUBLE_EQ(result->density, 0.0);
}

TEST(DcsGreedyTest, SinglepositiveEdge) {
  Graph gd = MakeGraph(4, {{1, 2, 3.0}, {0, 3, -1.0}});
  auto result = RunDcsGreedy(gd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset, (std::vector<VertexId>{1, 2}));
  EXPECT_DOUBLE_EQ(result->density, 3.0);
}

TEST(DcsGreedyTest, Fig1DifferenceGraph) {
  auto result = RunDcsGreedy(Fig1Gd());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->density, 0.0);
  // Reported density matches the subset.
  EXPECT_NEAR(AverageDegreeDensity(Fig1Gd(), result->subset), result->density,
              1e-9);
  // Candidate 1 is the heaviest edge (weight 4).
  EXPECT_DOUBLE_EQ(result->candidate_densities[0], 4.0);
  EXPECT_GE(result->ratio_bound, 1.0);
}

TEST(DcsGreedyTest, TwoGraphOverloadMatchesDifferenceGraph) {
  auto via_pair = RunDcsGreedy(Fig1G1(), Fig1G2());
  auto via_gd = RunDcsGreedy(Fig1Gd());
  ASSERT_TRUE(via_pair.ok());
  ASSERT_TRUE(via_gd.ok());
  EXPECT_EQ(via_pair->subset, via_gd->subset);
  EXPECT_DOUBLE_EQ(via_pair->density, via_gd->density);
}

TEST(DcsGreedyTest, ResultIsConnectedInGd) {
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    auto gd = RandomSignedGraph(30, 90, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(gd.ok());
    auto result = RunDcsGreedy(*gd);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(IsInducedConnected(*gd, result->subset));
  }
}

TEST(DcsGreedyTest, DensityAtLeastHeaviestEdge) {
  // The heaviest-edge candidate guarantees ρ(S) >= max weight.
  Rng rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    auto gd = RandomSignedGraph(25, 70, 0.5, 0.5, 5.0, &rng);
    ASSERT_TRUE(gd.ok());
    const WeightStats stats = gd->ComputeWeightStats();
    if (stats.num_positive_edges == 0) continue;
    auto result = RunDcsGreedy(*gd);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->density, stats.max_weight - 1e-9);
  }
}

TEST(DcsGreedyTest, HardnessReductionRecoversPlantedClique) {
  // Theorem 1 construction on a graph whose maximum clique is {0,1,2,3}:
  // optimal DCSAD density is k−1 = 3 and the greedy should find it (the
  // max-clique edges are the only positive edges and form the densest set).
  std::vector<std::pair<VertexId, VertexId>> edges{
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},  // K4
      {4, 5}, {5, 6},                                  // stray path
  };
  auto reduction = MakeHardnessReduction(7, edges);
  auto result = RunDcsGreedy(reduction.g1, reduction.g2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(result->density, 3.0);
}

class DcsGreedyOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DcsGreedyOracleTest, NeverExceedsExactAndRatioBoundHolds) {
  Rng rng(GetParam());
  auto gd = RandomSignedGraph(13, 34, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  auto greedy = RunDcsGreedy(*gd);
  auto exact = ExactDcsadBruteForce(*gd);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(exact.ok());
  // Feasibility.
  EXPECT_LE(greedy->density, exact->density + 1e-9);
  // Theorem 2: OPT <= ratio_bound · ρ(S).
  if (greedy->density > 0.0) {
    EXPECT_LE(exact->density,
              greedy->ratio_bound * greedy->density + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcsGreedyOracleTest,
                         ::testing::Values(71, 72, 73, 74, 75, 76, 77, 78, 79,
                                           80, 81, 82, 83, 84, 85));

TEST(DcsGreedyTest, CandidateDensitiesAreConsistent) {
  Rng rng(4141);
  auto gd = RandomSignedGraph(20, 60, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  auto result = RunDcsGreedy(*gd);
  ASSERT_TRUE(result.ok());
  // The final density is at least every candidate's density (component
  // refinement can only improve it, by Property 1).
  for (double candidate : result->candidate_densities) {
    EXPECT_GE(result->density, candidate - 1e-9);
  }
}

// Golden answer on the smoke-size input of the repository benchmark's
// ad_alpha_sweep workload (Chung-Lu pair, alpha = 1). The constants were
// captured once and pin DCSGreedy bit for bit: any change to the peel's
// victim order or to its degree sums moves at least one of them.
TEST(DcsGreedyTest, GoldenAnswerOnChungLuPair) {
  ChungLuParams params;
  params.n = 3000;
  params.average_degree = 20.0;
  params.exponent = 2.3;
  params.weight_geometric_p = 0.5;
  Rng rng(2);
  auto g1 = ChungLu(params, &rng);
  auto g2 = ChungLu(params, &rng);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto result = RunDcsGreedy(*g1, *g2);
  ASSERT_TRUE(result.ok());

  uint64_t subset_hash = 0xcbf29ce484222325ull;  // FNV-1a over the ids
  for (VertexId v : result->subset) {
    subset_hash = (subset_hash ^ v) * 0x100000001b3ull;
  }
  uint64_t density_bits = 0;
  uint64_t ratio_bits = 0;
  std::memcpy(&density_bits, &result->density, sizeof(double));
  std::memcpy(&ratio_bits, &result->ratio_bound, sizeof(double));
  EXPECT_EQ(result->subset.size(), 49u);
  EXPECT_EQ(subset_hash, 0xbc44f4f9e6c453fbull);
  EXPECT_EQ(density_bits, 0x403743eb1a1f58d1ull);  // 23.265306...
  EXPECT_EQ(ratio_bits, 0x401382bf1e78a42cull);  // 4.877682...
}

}  // namespace
}  // namespace dcs
