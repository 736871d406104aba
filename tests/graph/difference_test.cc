#include "graph/difference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gen/random_graphs.h"
#include "graph/graph_builder.h"
#include "oracles/naive_pipeline.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::NaiveDifferenceGraph;
using ::dcs::testing::NaiveDiscretizeWeights;
using ::dcs::testing::NaivePositivePart;
using ::dcs::testing::NaiveWeightsClampedAbove;
using ::dcs::testing::SameGraphBits;

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
  ASSERT_EQ(disappearing->NumEdges(), emerging->NumEdges());
  for (VertexId u = 0; u < emerging->NumVertices(); ++u) {
    for (const Neighbor& nb : emerging->NeighborsOf(u)) {
      EXPECT_EQ(disappearing->EdgeWeight(u, nb.to), -nb.weight);
    }
  }
}

// ---- The graph/ bodies against the builder-based naive references ----

TEST(GraphKernelsTest, DifferenceTwinMatchesReferenceOnRandomPairs) {
  for (const uint64_t seed : {3u, 21u, 77u}) {
    Rng rng(seed);
    Result<Graph> g1 = ErdosRenyiWeighted(200, 0.05, 0.5, 3.0, &rng);
    Result<Graph> g2 = ErdosRenyiWeighted(200, 0.05, 0.5, 3.0, &rng);
    ASSERT_TRUE(g1.ok() && g2.ok());
    for (const double alpha : {1.0, 0.5, 1.0 / 3.0}) {
      Result<Graph> reference = NaiveDifferenceGraph(*g1, *g2, alpha);
      Result<Graph> body = BuildDifferenceGraph(*g1, *g2, alpha);
      ASSERT_TRUE(reference.ok() && body.ok());
      EXPECT_TRUE(SameGraphBits(*reference, *body)) << "alpha " << alpha;
    }
  }
}

TEST(GraphKernelsTest, DifferenceTwinDropsCancellationsLikeTheBuilder) {
  // Identical edge in both graphs with alpha=1 cancels to exactly 0; a
  // near-identical one leaves a residue below the builder's zero_eps. Both
  // must be absent from both implementations. The inputs are built with
  // zero_eps = 0, so their 1e-13 and 2e-13 edges exist.
  const Graph g1 =
      MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 3, 1e-13}}, /*zero_eps=*/0.0);
  const Graph g2 =
      MakeGraph(4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 2e-13}}, /*zero_eps=*/0.0);
  ASSERT_TRUE(g1.HasEdge(2, 3) && g2.HasEdge(2, 3));
  Result<Graph> reference = NaiveDifferenceGraph(g1, g2, 1.0);
  Result<Graph> body = BuildDifferenceGraph(g1, g2, 1.0);
  ASSERT_TRUE(reference.ok() && body.ok());
  EXPECT_TRUE(SameGraphBits(*reference, *body));
  EXPECT_FALSE(body->HasEdge(0, 1));
  EXPECT_FALSE(body->HasEdge(2, 3));
  EXPECT_TRUE(body->HasEdge(1, 2));
}

TEST(GraphKernelsTest, DifferenceTwinMirrorsReferenceErrors) {
  const Graph small = MakeGraph(3, {{0, 1, 1.0}});
  const Graph large = MakeGraph(4, {{0, 1, 1.0}});
  const auto expect_invalid = [](const Graph& g1, const Graph& g2,
                                 double alpha) {
    EXPECT_TRUE(
        BuildDifferenceGraph(g1, g2, alpha).status().IsInvalidArgument());
    EXPECT_TRUE(
        NaiveDifferenceGraph(g1, g2, alpha).status().IsInvalidArgument());
  };
  expect_invalid(small, large, 1.0);
  expect_invalid(small, small, 0.0);
  expect_invalid(small, small, -2.0);
}

TEST(GraphKernelsTest, DiscretizeTwinMatchesReference) {
  for (const uint64_t seed : {5u, 31u}) {
    Rng rng(seed);
    Result<Graph> g1 = ErdosRenyiWeighted(150, 0.06, 0.5, 3.0, &rng);
    Result<Graph> g2 = ErdosRenyiWeighted(150, 0.06, 0.5, 3.0, &rng);
    ASSERT_TRUE(g1.ok() && g2.ok());
    Result<Graph> gd = BuildDifferenceGraph(*g1, *g2, 1.0);
    ASSERT_TRUE(gd.ok());
    DiscretizeSpec spec;
    spec.strong_pos = 2.0;
    spec.weak_pos = 1.0;
    spec.strong_neg = -1.5;
    Result<Graph> reference = NaiveDiscretizeWeights(*gd, spec);
    Result<Graph> body = DiscretizeWeights(*gd, spec);
    ASSERT_TRUE(reference.ok() && body.ok());
    EXPECT_TRUE(SameGraphBits(*reference, *body));
  }
  DiscretizeSpec invalid;
  invalid.weak_pos = -1.0;
  const Graph g = MakeGraph(2, {{0, 1, 1.0}});
  EXPECT_TRUE(DiscretizeWeights(g, invalid).status().IsInvalidArgument());
  EXPECT_TRUE(NaiveDiscretizeWeights(g, invalid).status().IsInvalidArgument());
}

// Every graph on n <= 3 vertices whose pairs take a weight from
// {absent, ±1, ±2.5, ±5, 1e-13}, paired with every other such graph, through
// every pipeline shape: alpha in {1, 0.5}, discretize off / default spec /
// custom spec, clamp off / on, then GD+. Each step's graph/ body must match
// its naive reference bit for bit. The 1e-13 inputs (kept by building with
// zero_eps = 0) exercise the zero_eps drop; thresholds sit on 2.5 and 5. The
// steps after the difference are pure functions of D, so they run once per
// distinct D.
TEST(DifferenceGraphTest, EveryTinyPipelineMatchesNaiveReference) {
  const double kWeights[] = {0.0, 1.0, -1.0, 2.5, -2.5, 5.0, -5.0, 1e-13};
  constexpr size_t kChoices = std::size(kWeights);
  DiscretizeSpec custom;
  custom.strong_pos = 2.5;
  custom.weak_pos = 1.0;
  custom.strong_neg = -2.5;
  custom.level_one = 1e-13;  // every level-one edge falls under zero_eps
  custom.level_two = 5.0;
  ASSERT_TRUE(custom.Validate().ok());
  const DiscretizeSpec kSpecs[] = {DiscretizeSpec{}, custom};
  const double kCap = 2.5;

  VertexId n = 0;
  size_t a = 0, b = 0;
  double alpha = 1.0;
  size_t failures = 0;
  const auto check = [&](const Graph& reference, const Graph& body,
                         const char* step) {
    if (SameGraphBits(reference, body)) return;
    if (++failures <= 5) {
      ADD_FAILURE() << step << ": n=" << n << " g1=" << a << " g2=" << b
                    << " alpha=" << alpha;
    }
  };
  // Clamp off / on, each followed by GD+.
  const auto check_clamp_and_positive_part = [&](const Graph& naive,
                                                 const Graph& body) {
    check(NaivePositivePart(naive), body.PositivePart(), "positive part");
    const Graph naive_clamped = NaiveWeightsClampedAbove(naive, kCap);
    const Graph clamped = body.WeightsClampedAbove(kCap);
    check(naive_clamped, clamped, "clamp");
    check(NaivePositivePart(naive_clamped), clamped.PositivePart(),
          "clamped positive part");
  };

  size_t differences = 0;
  std::unordered_set<uint64_t> seen;
  for (n = 0; n <= 3; ++n) {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
    }
    size_t num_graphs = 1;
    for (size_t p = 0; p < pairs.size(); ++p) num_graphs *= kChoices;
    std::vector<Graph> graphs;
    for (size_t code = 0; code < num_graphs; ++code) {
      std::vector<std::tuple<VertexId, VertexId, double>> edges;
      size_t rest = code;
      for (const auto& [u, v] : pairs) {
        const double w = kWeights[rest % kChoices];
        rest /= kChoices;
        if (w != 0.0) edges.emplace_back(u, v, w);
      }
      graphs.push_back(MakeGraph(n, edges, /*zero_eps=*/0.0));
    }
    for (a = 0; a < graphs.size(); ++a) {
      for (b = 0; b < graphs.size(); ++b) {
        for (const double pair_alpha : {1.0, 0.5}) {
          alpha = pair_alpha;
          Result<Graph> naive_gd =
              NaiveDifferenceGraph(graphs[a], graphs[b], alpha);
          Result<Graph> gd = BuildDifferenceGraph(graphs[a], graphs[b], alpha);
          ASSERT_TRUE(naive_gd.ok() && gd.ok());
          check(*naive_gd, *gd, "difference");
          ++differences;
          if (!seen.insert(gd->ContentFingerprint()).second) continue;
          check_clamp_and_positive_part(*naive_gd, *gd);
          for (const DiscretizeSpec& spec : kSpecs) {
            Result<Graph> naive_mapped = NaiveDiscretizeWeights(*naive_gd, spec);
            Result<Graph> mapped = DiscretizeWeights(*gd, spec);
            ASSERT_TRUE(naive_mapped.ok() && mapped.ok());
            check(*naive_mapped, *mapped, "discretize");
            check_clamp_and_positive_part(*naive_mapped, *mapped);
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  // 1 + 1 + 8^2 + 8^6 graph pairs on n = 0..3, × 2 alphas.
  EXPECT_EQ(differences, (2u + 64u + 262144u) * 2u);

  // A difference that overflows to ±inf takes the InvalidArgument path in
  // both implementations: +max − (−max) in a shared pair, and −4·max from a
  // G1-only pair.
  const double kMax = std::numeric_limits<double>::max();
  const Graph low = MakeGraph(3, {{0, 1, -kMax}, {1, 2, kMax}});
  const Graph high = MakeGraph(3, {{0, 1, kMax}});
  for (const double alpha : {1.0, 4.0}) {
    EXPECT_TRUE(BuildDifferenceGraph(low, high, alpha)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(NaiveDifferenceGraph(low, high, alpha)
                    .status()
                    .IsInvalidArgument());
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
// map to +0.0, and one-ulp perturbations land on the correct side.
// DiscretizeWeights and the streaming patch path both apply this chain, so
// these are the bits they must reproduce.
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
