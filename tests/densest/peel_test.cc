#include "densest/peel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "oracles/exact.h"
#include "oracles/goldberg.h"
#include "gen/random_graphs.h"
#include "graph/graph_builder.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;

TEST(GreedyPeelTest, EmptyGraph) {
  const PeelResult result = GreedyPeel(Graph(0));
  EXPECT_TRUE(result.subset.empty());
  EXPECT_DOUBLE_EQ(result.density, 0.0);
}

TEST(GreedyPeelTest, SingleVertex) {
  const PeelResult result = GreedyPeel(Graph(1));
  ASSERT_EQ(result.subset.size(), 1u);
  EXPECT_DOUBLE_EQ(result.density, 0.0);
}

TEST(GreedyPeelTest, SingleEdge) {
  Graph g = MakeGraph(2, {{0, 1, 3.0}});
  const PeelResult result = GreedyPeel(g);
  EXPECT_EQ(result.subset.size(), 2u);
  EXPECT_DOUBLE_EQ(result.density, 3.0);  // ρ({u,v}) = w
}

TEST(GreedyPeelTest, CliquePlusPendantFindsClique) {
  // K4 (weight 1) + pendant: densest subgraph is the K4 with ρ = 3.
  GraphBuilder builder(5);
  std::vector<VertexId> clique{0, 1, 2, 3};
  ASSERT_TRUE(AddClique(&builder, clique, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(3, 4, 0.1).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  PeelResult result = GreedyPeel(*g);
  std::sort(result.subset.begin(), result.subset.end());
  EXPECT_EQ(result.subset, clique);
  EXPECT_DOUBLE_EQ(result.density, 3.0);
}

TEST(GreedyPeelTest, PeelOrderIsAFullPermutation) {
  Graph g = MakeGraph(4, {{0, 1, 1.0}, {2, 3, 2.0}});
  PeelResult result = GreedyPeel(g);
  std::vector<VertexId> order = result.peel_order;
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(GreedyPeelTest, HandlesNegativeWeights) {
  // Heavy positive pair overshadowed by negative attachments; peel should
  // shed the negative vertices first.
  Graph g = MakeGraph(4, {{0, 1, 5.0}, {1, 2, -3.0}, {2, 3, -4.0}});
  PeelResult result = GreedyPeel(g);
  std::sort(result.subset.begin(), result.subset.end());
  EXPECT_EQ(result.subset, (std::vector<VertexId>{0, 1}));
  EXPECT_DOUBLE_EQ(result.density, 5.0);
}

TEST(GreedyPeelTest, AllNegativeGraphAchievesZeroDensity) {
  // Peeling removes the most negative vertex first; the best prefix is an
  // edgeless remainder of density 0 (matching the singleton optimum value).
  Graph g = MakeGraph(3, {{0, 1, -1.0}, {1, 2, -2.0}});
  PeelResult result = GreedyPeel(g);
  EXPECT_DOUBLE_EQ(result.density, 0.0);
  EXPECT_DOUBLE_EQ(AverageDegreeDensity(g, result.subset), 0.0);
}

TEST(GreedyPeelTest, Fig1DifferenceGraph) {
  PeelResult result = GreedyPeel(Fig1Gd());
  // Density must be at least the heaviest edge weight... not guaranteed for
  // greedy in signed graphs, but on this instance the peel finds a positive
  // density set.
  EXPECT_GT(result.density, 0.0);
  EXPECT_NEAR(AverageDegreeDensity(Fig1Gd(), result.subset), result.density,
              1e-9);
}

TEST(GreedyPeelTest, ReportedDensityMatchesSubset) {
  Rng rng(99);
  auto g = RandomSignedGraph(30, 120, 0.7, 0.5, 5.0, &rng);
  ASSERT_TRUE(g.ok());
  const PeelResult result = GreedyPeel(*g);
  EXPECT_NEAR(AverageDegreeDensity(*g, result.subset), result.density, 1e-9);
}

// Charikar's guarantee: on non-negative weights the peel density is at least
// half the optimum (verified against the exact max-flow solver).
class CharikarApproximationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CharikarApproximationTest, WithinFactorTwoOfExact) {
  Rng rng(GetParam());
  const VertexId n = 12 + static_cast<VertexId>(rng.NextBounded(20));
  auto g = ErdosRenyiWeighted(n, 0.25, 0.5, 3.0, &rng);
  ASSERT_TRUE(g.ok());
  if (g->NumEdges() == 0) GTEST_SKIP() << "degenerate sample";
  const PeelResult greedy = GreedyPeel(*g);
  auto exact = GoldbergDensestSubgraph(*g);
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(greedy.density * 2.0 + 1e-6, exact->density);
  EXPECT_LE(greedy.density, exact->density + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CharikarApproximationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15));

// On tiny signed graphs, compare against subset enumeration: the peel result
// can never exceed the exact optimum.
class SignedPeelBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignedPeelBoundTest, NeverExceedsExactOptimum) {
  Rng rng(GetParam());
  auto g = RandomSignedGraph(12, 30, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(g.ok());
  const PeelResult greedy = GreedyPeel(*g);
  auto exact = ExactDcsadBruteForce(*g);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(greedy.density, exact->density + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignedPeelBoundTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// Algorithm 1 in its plainest O(n^2) form: scan for the minimum
// (current degree, vertex id), subtract the victim's edge weights from its
// neighbors in adjacency order, keep the best prefix. GreedyPeel must
// reproduce it bit for bit — victim order, subset and density.
PeelResult NaiveReferencePeel(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  PeelResult result;
  if (n == 0) return result;
  std::vector<double> degree(n);
  double total_degree = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.WeightedDegree(v);
    total_degree += degree[v];
  }
  double best_density = total_degree / static_cast<double>(n);
  size_t best_removed = 0;
  std::vector<char> removed(n, 0);
  for (VertexId remaining = n; remaining > 0; --remaining) {
    VertexId victim = n;
    for (VertexId v = 0; v < n; ++v) {
      if (!removed[v] && (victim == n || degree[v] < degree[victim])) {
        victim = v;
      }
    }
    removed[victim] = 1;
    result.peel_order.push_back(victim);
    if (remaining == 1) break;
    total_degree -= 2.0 * degree[victim];
    for (const Neighbor& nb : graph.NeighborsOf(victim)) {
      if (!removed[nb.to]) degree[nb.to] += -nb.weight;
    }
    const double density = total_degree / static_cast<double>(remaining - 1);
    if (density > best_density) {
      best_density = density;
      best_removed = result.peel_order.size();
    }
  }
  result.density = best_density;
  std::vector<char> in_best(n, 1);
  for (size_t t = 0; t < best_removed; ++t) in_best[result.peel_order[t]] = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (in_best[v]) result.subset.push_back(v);
  }
  return result;
}

// Returns "" when GreedyPeel equals the reference on `graph`, else a
// description of the first difference.
std::string ReferenceMismatch(const Graph& graph) {
  const PeelResult got = GreedyPeel(graph);
  const PeelResult want = NaiveReferencePeel(graph);
  if (got.peel_order != want.peel_order) return "peel_order differs";
  if (got.subset != want.subset) return "subset differs";
  if (std::memcmp(&got.density, &want.density, sizeof(double)) != 0) {
    return "density bits differ";
  }
  return "";
}

TEST(GreedyPeelTest, MatchesNaiveReferencePeel) {
  // Every graph on n <= 5 vertices with weights in {-1, +1}: each vertex
  // pair is absent, -1 or +1. Ties in the current degree are the rule here,
  // so this pins the lowest-id tie break.
  for (VertexId n = 0; n <= 5; ++n) {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
    }
    size_t graphs = 1;
    for (size_t i = 0; i < pairs.size(); ++i) graphs *= 3;
    for (size_t code = 0; code < graphs; ++code) {
      GraphBuilder builder(n);
      size_t digits = code;
      for (const auto& [u, v] : pairs) {
        if (digits % 3 != 0) {
          builder.AddEdgeUnchecked(u, v, digits % 3 == 1 ? -1.0 : 1.0);
        }
        digits /= 3;
      }
      auto g = builder.Build();
      ASSERT_TRUE(g.ok());
      ASSERT_EQ(ReferenceMismatch(*g), "") << "n=" << n << " code=" << code;
    }
  }

  // Seeded random signed graphs up to n = 60 under four weight families,
  // peeled as given (GD) and as their positive part (GD+).
  enum class Weights { kSmallInteger, kHalfInteger, kReal, kUnit };
  Rng rng(20240518);
  for (int trial = 0; trial < 400; ++trial) {
    const auto family = static_cast<Weights>(trial % 4);
    const VertexId n = 2 + static_cast<VertexId>(rng.NextBounded(59));
    const double p = rng.Uniform(0.05, 0.6);
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (!rng.Bernoulli(p)) continue;
        double w = 0.0;
        switch (family) {
          case Weights::kSmallInteger:
            w = static_cast<double>(rng.UniformInt(-3, 3));
            break;
          case Weights::kHalfInteger:
            w = 0.5 * static_cast<double>(rng.UniformInt(-6, 6));
            break;
          case Weights::kReal:
            w = rng.Uniform(-2.0, 3.0);
            break;
          case Weights::kUnit:
            w = rng.Bernoulli(0.6) ? 1.0 : -1.0;
            break;
        }
        if (w != 0.0) builder.AddEdgeUnchecked(u, v, w);
      }
    }
    auto g = builder.Build();
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(ReferenceMismatch(*g), "") << "GD, trial " << trial;
    ASSERT_EQ(ReferenceMismatch(g->PositivePart()), "")
        << "GD+, trial " << trial;
  }
}

// Property sweep of the peel's min-priority structure (the suite keeps the
// name it had when that structure was a segment tree): each seed peels random
// signed graphs (n <= 64) whose keys move both ways — removing a
// positive edge lowers a neighbour's key, a negative one raises it — and every
// pop must be the naive model's minimum (degree, id).
class SegmentTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentTreeFuzzTest, MatchesNaiveModel) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId n = 1 + static_cast<VertexId>(rng.NextBounded(64));
    const double p = rng.Uniform(0.05, 0.5);
    // Even trials draw integer weights, so equal keys are frequent.
    const bool integral = trial % 2 == 0;
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (!rng.Bernoulli(p)) continue;
        const double w = integral
                             ? static_cast<double>(rng.UniformInt(-10, 10))
                             : rng.Uniform(-10.0, 10.0);
        if (w != 0.0) builder.AddEdgeUnchecked(u, v, w);
      }
    }
    auto g = builder.Build();
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(ReferenceMismatch(*g), "") << "GD, trial " << trial;
    ASSERT_EQ(ReferenceMismatch(g->PositivePart()), "")
        << "GD+, trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace dcs
