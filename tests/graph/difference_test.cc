#include "graph/difference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph_builder.h"
#include "test_util.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::MakeGraph;

TEST(DifferenceGraphTest, Fig1Example) {
  auto gd = BuildDifferenceGraph(Fig1G1(), Fig1G2());
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->NumVertices(), 5u);
  EXPECT_EQ(gd->NumEdges(), 6u);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(0, 1), 4.0);   // only in G2
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(2, 3), -2.0);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(3, 4), 4.0);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(0, 4), -1.0);
}

TEST(DifferenceGraphTest, PositivePartOfFig1) {
  auto gd = BuildDifferenceGraph(Fig1G1(), Fig1G2());
  ASSERT_TRUE(gd.ok());
  Graph gd_plus = gd->PositivePart();
  EXPECT_EQ(gd_plus.NumEdges(), 4u);
  EXPECT_FALSE(gd_plus.HasEdge(2, 3));
  EXPECT_FALSE(gd_plus.HasEdge(0, 4));
}

TEST(DifferenceGraphTest, EqualGraphsYieldEmptyDifference) {
  Graph g = MakeGraph(4, {{0, 1, 2.0}, {2, 3, 1.5}});
  auto gd = BuildDifferenceGraph(g, g);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->NumEdges(), 0u);
}

TEST(DifferenceGraphTest, EdgeOnlyInG1IsNegative) {
  Graph g1 = MakeGraph(3, {{0, 1, 5.0}});
  Graph g2(3);
  auto gd = BuildDifferenceGraph(g1, g2);
  ASSERT_TRUE(gd.ok());
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(0, 1), -5.0);
}

TEST(DifferenceGraphTest, AlphaScalesG1) {
  Graph g1 = MakeGraph(3, {{0, 1, 2.0}});
  Graph g2 = MakeGraph(3, {{0, 1, 5.0}});
  auto gd = BuildDifferenceGraph(g1, g2, /*alpha=*/2.0);
  ASSERT_TRUE(gd.ok());
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(0, 1), 1.0);  // 5 − 2·2
}

TEST(DifferenceGraphTest, AlphaExactCancellationDropsEdge) {
  Graph g1 = MakeGraph(3, {{0, 1, 2.0}});
  Graph g2 = MakeGraph(3, {{0, 1, 5.0}});
  auto gd = BuildDifferenceGraph(g1, g2, /*alpha=*/2.5);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->NumEdges(), 0u);
}

TEST(DifferenceGraphTest, MismatchedVertexCountsRejected) {
  EXPECT_FALSE(BuildDifferenceGraph(Graph(3), Graph(4)).ok());
}

TEST(DifferenceGraphTest, BadAlphaRejected) {
  Graph g(3);
  EXPECT_FALSE(BuildDifferenceGraph(g, g, 0.0).ok());
  EXPECT_FALSE(BuildDifferenceGraph(g, g, -1.0).ok());
  EXPECT_FALSE(BuildDifferenceGraph(g, g, std::nan("")).ok());
}

TEST(DifferenceGraphTest, DisjointEdgeSetsMergeCleanly) {
  Graph g1 = MakeGraph(4, {{0, 1, 1.0}});
  Graph g2 = MakeGraph(4, {{2, 3, 2.0}});
  auto gd = BuildDifferenceGraph(g1, g2);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(gd->EdgeWeight(2, 3), 2.0);
}

TEST(DifferenceGraphTest, NegationFlipsEmergingIntoDisappearing) {
  auto emerging = BuildDifferenceGraph(Fig1G1(), Fig1G2());
  auto disappearing = BuildDifferenceGraph(Fig1G2(), Fig1G1());
  ASSERT_TRUE(emerging.ok());
  ASSERT_TRUE(disappearing.ok());
  Graph negated = emerging->Negated();
  for (VertexId u = 0; u < negated.NumVertices(); ++u) {
    for (const Neighbor& nb : negated.NeighborsOf(u)) {
      EXPECT_DOUBLE_EQ(disappearing->EdgeWeight(u, nb.to), nb.weight);
    }
  }
}

// ---- DiscretizeSpec ----

TEST(DiscretizeSpecTest, DefaultMappingMatchesPaper) {
  DiscretizeSpec spec;  // DBLP thresholds: 5 / 2 / −4, levels 2 / 1
  EXPECT_DOUBLE_EQ(spec.Map(7.0), 2.0);    // ≥ 5
  EXPECT_DOUBLE_EQ(spec.Map(5.0), 2.0);
  EXPECT_DOUBLE_EQ(spec.Map(3.0), 1.0);    // [2, 5)
  EXPECT_DOUBLE_EQ(spec.Map(2.0), 1.0);
  EXPECT_DOUBLE_EQ(spec.Map(1.0), 0.0);    // (0, 2): dropped
  EXPECT_DOUBLE_EQ(spec.Map(0.0), 0.0);
  EXPECT_DOUBLE_EQ(spec.Map(-1.0), -1.0);  // (−4, 0)
  EXPECT_DOUBLE_EQ(spec.Map(-3.9), -1.0);
  EXPECT_DOUBLE_EQ(spec.Map(-4.0), -2.0);  // ≤ −4
  EXPECT_DOUBLE_EQ(spec.Map(-100.0), -2.0);
}

// Exhaustive boundary audit of the threshold chain: every comparison in Map
// is inclusive-on-the-threshold (>= strong_pos, >= weak_pos, <= strong_neg),
// the open interval (0, weak_pos) and the exact zeros — including -0.0 —
// map to +0.0, and one-ulp perturbations land on the correct side. The CD
// inner loop and the vectorized discretize kernel both mirror this chain,
// so these are the bits they must reproduce.
TEST(DiscretizeSpecTest, MapThresholdBoundariesAreInclusive) {
  const DiscretizeSpec spec;  // strong_pos=5, weak_pos=2, strong_neg=-4

  // Exactly on each threshold.
  EXPECT_EQ(spec.Map(spec.weak_pos), spec.level_one);
  EXPECT_EQ(spec.Map(spec.strong_pos), spec.level_two);
  EXPECT_EQ(spec.Map(spec.strong_neg), -spec.level_two);

  // One ulp below / above each threshold.
  EXPECT_EQ(spec.Map(std::nextafter(spec.weak_pos, 0.0)), 0.0);
  EXPECT_EQ(spec.Map(std::nextafter(spec.weak_pos, 1e300)), spec.level_one);
  EXPECT_EQ(spec.Map(std::nextafter(spec.strong_pos, 0.0)), spec.level_one);
  EXPECT_EQ(spec.Map(std::nextafter(spec.strong_pos, 1e300)),
            spec.level_two);
  EXPECT_EQ(spec.Map(std::nextafter(spec.strong_neg, 0.0)), -spec.level_one);
  EXPECT_EQ(spec.Map(std::nextafter(spec.strong_neg, -1e300)),
            -spec.level_two);

  // Zeros: both signed zeros map to +0.0 (−0.0 is not < 0.0), so a "zero
  // difference" can never survive discretization with a sign bit attached.
  EXPECT_EQ(spec.Map(0.0), 0.0);
  EXPECT_EQ(spec.Map(-0.0), 0.0);
  EXPECT_FALSE(std::signbit(spec.Map(-0.0)));
  EXPECT_FALSE(std::signbit(spec.Map(0.0)));

  // Denormal magnitudes sit strictly inside the open intervals.
  EXPECT_EQ(spec.Map(5e-324), 0.0);
  EXPECT_EQ(spec.Map(-5e-324), -spec.level_one);

  // A spec with weak_pos == strong_pos classifies the shared threshold as
  // strong (the >= strong_pos test runs first).
  DiscretizeSpec merged;
  merged.strong_pos = 2.0;
  merged.weak_pos = 2.0;
  ASSERT_TRUE(merged.Validate().ok());
  EXPECT_EQ(merged.Map(2.0), merged.level_two);
  EXPECT_EQ(merged.Map(std::nextafter(2.0, 0.0)), 0.0);
}

TEST(DiscretizeSpecTest, ValidationRejectsBadThresholds) {
  DiscretizeSpec spec;
  spec.strong_neg = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = DiscretizeSpec{};
  spec.weak_pos = 10.0;  // > strong_pos
  EXPECT_FALSE(spec.Validate().ok());
  spec = DiscretizeSpec{};
  spec.level_one = 0.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = DiscretizeSpec{};
  spec.level_two = 0.5;  // < level_one
  EXPECT_FALSE(spec.Validate().ok());
  EXPECT_TRUE(DiscretizeSpec{}.Validate().ok());
}

TEST(DiscretizeSpecTest, DiscretizeWeightsDropsWeakPositives) {
  Graph gd = MakeGraph(5, {{0, 1, 6.0},    // -> +2
                           {1, 2, 3.0},    // -> +1
                           {2, 3, 1.0},    // -> dropped
                           {3, 4, -2.0},   // -> −1
                           {0, 4, -9.0}}); // -> −2
  auto discrete = DiscretizeWeights(gd, DiscretizeSpec{});
  ASSERT_TRUE(discrete.ok());
  EXPECT_EQ(discrete->NumEdges(), 4u);
  EXPECT_DOUBLE_EQ(discrete->EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(discrete->EdgeWeight(1, 2), 1.0);
  EXPECT_FALSE(discrete->HasEdge(2, 3));
  EXPECT_DOUBLE_EQ(discrete->EdgeWeight(3, 4), -1.0);
  EXPECT_DOUBLE_EQ(discrete->EdgeWeight(0, 4), -2.0);
}

TEST(DiscretizeSpecTest, DiscretizeRejectsInvalidSpec) {
  Graph gd = MakeGraph(2, {{0, 1, 1.0}});
  DiscretizeSpec spec;
  spec.strong_neg = 5.0;
  EXPECT_FALSE(DiscretizeWeights(gd, spec).ok());
}

TEST(AlphaUpperBoundTest, MatchesMaxRatio) {
  Graph g1 = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 4.0}});
  Graph g2 = MakeGraph(4, {{0, 1, 3.0}, {1, 2, 2.0}});
  auto alpha = AlphaUpperBound(g1, g2);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 1.5);  // 3/2 beats 2/4
}

TEST(AlphaUpperBoundTest, MissingG1EdgeGivesInfinity) {
  Graph g1 = MakeGraph(3, {{0, 1, 2.0}});
  Graph g2 = MakeGraph(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  auto alpha = AlphaUpperBound(g1, g2);
  ASSERT_TRUE(alpha.ok());
  EXPECT_TRUE(std::isinf(*alpha));
}

TEST(AlphaUpperBoundTest, EdgelessG2GivesZero) {
  Graph g1 = MakeGraph(3, {{0, 1, 2.0}});
  auto alpha = AlphaUpperBound(g1, Graph(3));
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 0.0);
}

TEST(AlphaUpperBoundTest, MismatchedSizesRejected) {
  EXPECT_FALSE(AlphaUpperBound(Graph(3), Graph(4)).ok());
}

TEST(AlphaUpperBoundTest, ContrastVanishesAboveAlpha) {
  // §III-D: at α just below the bound the difference graph has a positive
  // edge (positive optimum); at α above it, none.
  Graph g1 = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 4.0}, {2, 3, 1.0}});
  Graph g2 = MakeGraph(4, {{0, 1, 3.0}, {1, 2, 2.0}, {2, 3, 1.2}});
  auto alpha = AlphaUpperBound(g1, g2);
  ASSERT_TRUE(alpha.ok());
  auto below = BuildDifferenceGraph(g1, g2, *alpha * 0.99);
  auto above = BuildDifferenceGraph(g1, g2, *alpha * 1.01);
  ASSERT_TRUE(below.ok() && above.ok());
  EXPECT_GT(below->ComputeWeightStats().num_positive_edges, 0u);
  EXPECT_EQ(above->ComputeWeightStats().num_positive_edges, 0u);
}

}  // namespace
}  // namespace dcs
