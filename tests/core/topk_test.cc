#include "core/topk.h"

#include <gtest/gtest.h>

#include <set>

#include "gen/random_graphs.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

// A difference graph with three well-separated positive cliques of
// decreasing strength plus negative noise between them.
Graph ThreeCliqueGd() {
  GraphBuilder builder(20);
  std::vector<VertexId> strong{0, 1, 2, 3};
  std::vector<VertexId> medium{5, 6, 7};
  std::vector<VertexId> weak{10, 11};
  DCS_CHECK(AddClique(&builder, strong, 5.0).ok());
  DCS_CHECK(AddClique(&builder, medium, 3.0).ok());
  DCS_CHECK(AddClique(&builder, weak, 2.0).ok());
  builder.AddEdgeUnchecked(3, 5, -1.0);
  builder.AddEdgeUnchecked(7, 10, -2.0);
  auto g = builder.Build();
  DCS_CHECK(g.ok());
  return std::move(g).value();
}

TEST(TopkDcsadTest, FindsAllThreeCliquesInOrder) {
  TopkDcsadOptions options;
  options.k = 5;
  auto results = MineTopKDcsad(ThreeCliqueGd(), options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].subset, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ((*results)[1].subset, (std::vector<VertexId>{5, 6, 7}));
  EXPECT_EQ((*results)[2].subset, (std::vector<VertexId>{10, 11}));
  EXPECT_DOUBLE_EQ((*results)[0].density, 15.0);  // (k−1)·w
  EXPECT_DOUBLE_EQ((*results)[1].density, 6.0);
  EXPECT_DOUBLE_EQ((*results)[2].density, 2.0);
}

// Regression: at a negative min_density the rounds used to go on after the
// last positive edge was removed, and DCSGreedy's no-positive-edge singleton
// {0} came back twice although round 1 had already taken vertex 0.
TEST(TopkDcsadTest, NegativeMinDensityStopsOnceNoPositiveEdgeRemains) {
  const Graph gd = MakeGraph(4, {{0, 1, 2.0}, {2, 3, -1.0}});
  TopkDcsadOptions options;
  options.k = 3;
  options.min_density = -1.0;
  auto results = MineTopKDcsad(gd, options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].subset, (std::vector<VertexId>{0, 1}));
  EXPECT_DOUBLE_EQ((*results)[0].density, 2.0);
}

TEST(TopkDcsadTest, KLimitsResults) {
  TopkDcsadOptions options;
  options.k = 2;
  auto results = MineTopKDcsad(ThreeCliqueGd(), options);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
}

TEST(TopkDcsadTest, MinDensityStopsEarly) {
  TopkDcsadOptions options;
  options.k = 5;
  options.min_density = 5.0;
  auto results = MineTopKDcsad(ThreeCliqueGd(), options);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);  // the weak pair (ρ = 2) is filtered
}

TEST(TopkDcsadTest, ResultsAreVertexDisjoint) {
  Rng rng(55);
  auto gd = RandomSignedGraph(50, 200, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  TopkDcsadOptions options;
  options.k = 4;
  auto results = MineTopKDcsad(*gd, options);
  ASSERT_TRUE(results.ok());
  std::set<VertexId> seen;
  for (const RankedDcsad& r : *results) {
    for (VertexId v : r.subset) {
      EXPECT_TRUE(seen.insert(v).second) << "vertex " << v << " reused";
    }
    EXPECT_GT(r.density, 0.0);
    EXPECT_NEAR(AverageDegreeDensity(*gd, r.subset), r.density, 1e-9);
  }
}

TEST(TopkDcsadTest, EmptyGraphRejected) {
  EXPECT_FALSE(MineTopKDcsad(Graph(0)).ok());
}

TEST(TopkDcsadTest, AllNegativeYieldsNothing) {
  Graph gd = MakeGraph(4, {{0, 1, -1.0}, {2, 3, -2.0}});
  auto results = MineTopKDcsad(gd);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(TopkDcsgaTest, FindsAllThreeCliquesRanked) {
  TopkDcsgaOptions options;
  options.k = 5;
  auto results = MineTopKDcsga(ThreeCliqueGd().PositivePart(), options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].members, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ((*results)[1].members, (std::vector<VertexId>{5, 6, 7}));
  EXPECT_EQ((*results)[2].members, (std::vector<VertexId>{10, 11}));
  EXPECT_GT((*results)[0].affinity, (*results)[1].affinity);
  EXPECT_GT((*results)[1].affinity, (*results)[2].affinity);
}

TEST(TopkDcsgaTest, DisjointnessEnforced) {
  Rng rng(66);
  auto gd = RandomSignedGraph(40, 160, 0.7, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  TopkDcsgaOptions options;
  options.k = 6;
  options.disjoint = true;
  auto results = MineTopKDcsga(gd->PositivePart(), options);
  ASSERT_TRUE(results.ok());
  std::set<VertexId> seen;
  for (const CliqueRecord& clique : *results) {
    EXPECT_TRUE(IsPositiveClique(*gd, clique.members));
    for (VertexId v : clique.members) {
      EXPECT_TRUE(seen.insert(v).second);
    }
  }
}

TEST(TopkDcsgaTest, NonDisjointAllowsOverlap) {
  // Two overlapping strong cliques sharing vertex 2.
  GraphBuilder builder(8);
  DCS_CHECK(AddClique(&builder, std::vector<VertexId>{0, 1, 2}, 4.0).ok());
  DCS_CHECK(AddClique(&builder, std::vector<VertexId>{2, 3, 4}, 3.0).ok());
  auto gd = builder.Build();
  ASSERT_TRUE(gd.ok());
  TopkDcsgaOptions disjoint_options;
  disjoint_options.k = 5;
  disjoint_options.disjoint = true;
  auto disjoint = MineTopKDcsga(*gd, disjoint_options);
  TopkDcsgaOptions overlap_options = disjoint_options;
  overlap_options.disjoint = false;
  auto overlapping = MineTopKDcsga(*gd, overlap_options);
  ASSERT_TRUE(disjoint.ok() && overlapping.ok());
  EXPECT_GE(overlapping->size(), disjoint->size());
}

TEST(TopkDcsgaTest, MinAffinityFilters) {
  TopkDcsgaOptions options;
  options.k = 5;
  options.min_affinity = 2.5;  // weak pair has affinity 1.0, medium 2.0
  auto results = MineTopKDcsga(ThreeCliqueGd().PositivePart(), options);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);  // only the strong clique (3.75)
}

}  // namespace
}  // namespace dcs
