// Tests pinned directly to statements in the paper: the Fig. 1 walkthrough,
// the Theorem 1 reduction, Properties 1 & 2, the Motzkin–Straus connection,
// and the §IV-B O(n)-approximation argument.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/coordinate_descent.h"
#include "core/dcs_greedy.h"
#include "core/newsea.h"
#include "core/refinement.h"
#include "core/seacd.h"
#include "oracles/exact.h"
#include "densest/peel.h"
#include "gen/random_graphs.h"
#include "graph/components.h"
#include "graph/difference.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::MakeHardnessReduction;

// §III-B: the optimal value is positive iff GD has a positive edge;
// otherwise both optima are 0 with singleton solutions.
TEST(PaperSection3Test, NoPositiveEdgeMeansZeroOptimum) {
  Graph gd = MakeGraph(4, {{0, 1, -2.0}, {1, 2, -0.5}});
  auto dcsad = ExactDcsadBruteForce(gd);
  ASSERT_TRUE(dcsad.ok());
  EXPECT_DOUBLE_EQ(dcsad->density, 0.0);
  EXPECT_EQ(dcsad->subset.size(), 1u);
  auto dcsga = ExactDcsgaBruteForce(gd);
  ASSERT_TRUE(dcsga.ok());
  EXPECT_DOUBLE_EQ(dcsga->affinity, 0.0);
  EXPECT_EQ(dcsga->support.size(), 1u);
}

TEST(PaperSection3Test, PositiveEdgeMeansPositiveOptimum) {
  Graph gd = MakeGraph(4, {{0, 1, 0.5}, {1, 2, -3.0}});
  auto dcsad = ExactDcsadBruteForce(gd);
  ASSERT_TRUE(dcsad.ok());
  EXPECT_GT(dcsad->density, 0.0);
  auto dcsga = ExactDcsgaBruteForce(gd);
  ASSERT_TRUE(dcsga.ok());
  EXPECT_GT(dcsga->affinity, 0.0);
}

// Property 1: a disconnected S is dominated by one of its components.
TEST(Property1Test, BestComponentDominatesDisconnectedSet) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    auto gd = RandomSignedGraph(20, 40, 0.6, 0.5, 3.0, &rng);
    ASSERT_TRUE(gd.ok());
    // A random subset, possibly disconnected.
    std::vector<VertexId> subset;
    for (VertexId v = 0; v < 20; ++v) {
      if (rng.Bernoulli(0.4)) subset.push_back(v);
    }
    if (subset.empty()) continue;
    const double whole = AverageDegreeDensity(*gd, subset);
    double best_component = -1e300;
    for (const auto& comp : InducedComponents(*gd, subset)) {
      best_component =
          std::max(best_component, AverageDegreeDensity(*gd, comp));
    }
    EXPECT_GE(best_component, whole - 1e-9);
  }
}

// Property 2: same statement for affinity embeddings with f >= 0.
TEST(Property2Test, ComponentEmbeddingDominates) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    auto gd = RandomSignedGraph(16, 30, 0.7, 0.5, 3.0, &rng);
    ASSERT_TRUE(gd.ok());
    std::vector<VertexId> subset;
    for (VertexId v = 0; v < 16; ++v) {
      if (rng.Bernoulli(0.4)) subset.push_back(v);
    }
    if (subset.empty()) continue;
    Embedding x = Embedding::UniformOn(16, subset);
    const double f = x.Affinity(*gd);
    if (f < 0.0) continue;  // Property 2 assumes f(x) >= 0
    double best = 0.0;
    for (const auto& comp : InducedComponents(*gd, subset)) {
      Embedding y = Embedding::UniformOn(16, comp);
      best = std::max(best, y.Affinity(*gd));
    }
    EXPECT_GE(best, f - 1e-9);
  }
}

// Theorem 1 reduction: optimal density = max-clique size − 1.
TEST(Theorem1Test, OptimalDensityEqualsCliqueSizeMinusOne) {
  // Graph with max clique {1,2,4,5} of size 4 and assorted extra edges.
  std::vector<std::pair<VertexId, VertexId>> edges{
      {1, 2}, {1, 4}, {1, 5}, {2, 4}, {2, 5}, {4, 5},  // K4
      {0, 1}, {3, 4}, {0, 3},
  };
  auto reduction = MakeHardnessReduction(6, edges);
  auto gd = BuildDifferenceGraph(reduction.g1, reduction.g2);
  ASSERT_TRUE(gd.ok());
  auto exact = ExactDcsadBruteForce(*gd);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->density, 3.0);
  EXPECT_EQ(exact->subset, (std::vector<VertexId>{1, 2, 4, 5}));
}

// Theorem 3 reduction: DCSGA on (empty, G) equals max affinity of G, which
// for an unweighted graph is 1 − 1/k by Motzkin–Straus.
TEST(Theorem3Test, MotzkinStrausThroughDifferenceGraph) {
  GraphBuilder builder(7);
  std::vector<VertexId> clique{0, 2, 4, 6};
  ASSERT_TRUE(AddClique(&builder, clique, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, 1.0).ok());
  auto g2 = builder.Build();
  ASSERT_TRUE(g2.ok());
  auto gd = BuildDifferenceGraph(Graph(7), *g2);
  ASSERT_TRUE(gd.ok());
  auto exact = ExactDcsgaBruteForce(*gd);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->affinity, 1.0 - 1.0 / 4.0, 1e-9);
  EXPECT_EQ(exact->support, clique);
}

// §IV-B case 2: the heaviest edge is a 1/(n−1) approximation; an n-clique of
// uniform weight D(u,v) realizes the bound.
TEST(Section4Test, HeaviestEdgeApproximationBoundIsTight) {
  const VertexId n = 8;
  GraphBuilder builder(n);
  std::vector<VertexId> all;
  for (VertexId v = 0; v < n; ++v) all.push_back(v);
  ASSERT_TRUE(AddClique(&builder, all, 2.0).ok());
  auto gd = builder.Build();
  ASSERT_TRUE(gd.ok());
  auto exact = ExactDcsadBruteForce(*gd);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->density, 2.0 * (n - 1));  // whole clique
  // Heaviest-edge candidate achieves exactly OPT/(n−1).
  std::vector<VertexId> pair{0, 1};
  EXPECT_DOUBLE_EQ(AverageDegreeDensity(*gd, pair),
                   exact->density / static_cast<double>(n - 1));
}

// Theorem 5 consequence: an optimal DCSGA support is a positive clique, so
// running the pipeline on GD+ loses nothing; and NewSEA's refined output on
// GD matches the exact optimum on small instances.
TEST(Theorem5Test, NewSeaMatchesExactOnSmallSignedGraphs) {
  Rng rng(17);
  int checked = 0;
  for (int trial = 0; trial < 12; ++trial) {
    auto gd = RandomSignedGraph(11, 26, 0.6, 0.5, 3.0, &rng);
    ASSERT_TRUE(gd.ok());
    auto exact = ExactDcsgaBruteForce(*gd);
    ASSERT_TRUE(exact.ok());
    DcsgaOptions options;
    options.seacd.descent.epsilon_scale = 1e-9;
    options.refinement_descent.epsilon_scale = 1e-9;
    auto found = RunDcsgaAllInits(gd->PositivePart(), options);
    ASSERT_TRUE(found.ok());
    EXPECT_LE(found->affinity, exact->affinity + 1e-6);
    if (std::fabs(found->affinity - exact->affinity) < 1e-4) ++checked;
  }
  // Local search with all initializations should hit the optimum on the
  // overwhelming majority of these tiny instances.
  EXPECT_GE(checked, 9);
}

// The Fig. 1 walkthrough end to end: both problems, all algorithms agree
// with the exact oracles on this 5-vertex example.
TEST(Fig1EndToEndTest, AllSolversAgreeWithOracles) {
  Graph gd = Fig1Gd();
  auto exact_ad = ExactDcsadBruteForce(gd);
  auto exact_ga = ExactDcsgaBruteForce(gd);
  ASSERT_TRUE(exact_ad.ok() && exact_ga.ok());

  auto greedy = RunDcsGreedy(gd);
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(greedy->density, exact_ad->density + 1e-9);
  EXPECT_GE(greedy->density,
            exact_ad->density / greedy->ratio_bound - 1e-9);

  auto newsea = RunNewSea(gd.PositivePart());
  ASSERT_TRUE(newsea.ok());
  EXPECT_NEAR(newsea->affinity, exact_ga->affinity, 1e-4);
  EXPECT_TRUE(IsPositiveClique(gd, newsea->support));
}

}  // namespace
}  // namespace dcs
