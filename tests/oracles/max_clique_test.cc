#include "oracles/max_clique.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/random_graphs.h"
#include "graph/kcore.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

// Brute-force clique number for cross-checking (n <= ~18).
size_t NaiveCliqueNumber(const Graph& g) {
  const VertexId n = g.NumVertices();
  size_t best = n > 0 ? 1 : 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) members.push_back(v);
    }
    if (members.size() > best && IsClique(g, members)) best = members.size();
  }
  return best;
}

TEST(MaxCliqueTest, EmptyAndEdgeless) {
  auto empty = FindMaxClique(Graph(0));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->members.empty());
  auto edgeless = FindMaxClique(Graph(5));
  ASSERT_TRUE(edgeless.ok());
  EXPECT_EQ(edgeless->members.size(), 1u);
}

TEST(MaxCliqueTest, Triangle) {
  Graph g = MakeGraph(4, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}});
  auto result = FindMaxClique(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members, (std::vector<VertexId>{0, 1, 2}));
}

TEST(MaxCliqueTest, PlantedCliqueInNoise) {
  Rng rng(5);
  GraphBuilder builder(40);
  auto noise = ErdosRenyi(40, 0.15, &rng);
  ASSERT_TRUE(noise.ok());
  for (const Edge& e : noise->UndirectedEdges()) {
    ASSERT_TRUE(builder.AddEdge(e.u, e.v, 1.0).ok());
  }
  std::vector<VertexId> planted{2, 9, 17, 25, 33, 38};
  ASSERT_TRUE(AddClique(&builder, planted, 1.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = FindMaxClique(*g);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->members.size(), 6u);
  EXPECT_TRUE(IsClique(*g, result->members));
}

TEST(MaxCliqueTest, WeightsAreIgnored) {
  Graph g = MakeGraph(3, {{0, 1, -5.0}, {1, 2, 0.1}, {0, 2, 100.0}});
  auto result = FindMaxClique(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members.size(), 3u);
}

TEST(MaxCliqueTest, NodeBudgetIsEnforced) {
  Rng rng(6);
  auto g = ErdosRenyi(60, 0.6, &rng);
  ASSERT_TRUE(g.ok());
  MaxCliqueOptions options;
  options.max_nodes = 3;
  auto result = FindMaxClique(*g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotConverged());
}

class MaxCliquePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxCliquePropertyTest, MatchesNaiveEnumeration) {
  Rng rng(GetParam());
  const VertexId n = 8 + static_cast<VertexId>(rng.NextBounded(8));
  auto g = ErdosRenyi(n, 0.4, &rng);
  ASSERT_TRUE(g.ok());
  auto result = FindMaxClique(*g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsClique(*g, result->members));
  EXPECT_EQ(result->members.size(), NaiveCliqueNumber(*g));
}

TEST_P(MaxCliquePropertyTest, CliqueNumberBoundedByCorePlusOne) {
  // The bound NewSEA's Theorem 6 rests on: ω(G) ≤ τ_max + 1.
  Rng rng(GetParam() + 500);
  auto g = ErdosRenyi(25, 0.3, &rng);
  ASSERT_TRUE(g.ok());
  auto result = FindMaxClique(*g);
  ASSERT_TRUE(result.ok());
  const auto cores = CoreNumbers(*g);
  for (VertexId v : result->members) {
    EXPECT_GE(cores[v] + 1, result->members.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxCliquePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace dcs
