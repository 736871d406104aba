#include "core/newsea.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <string>

#include "oracles/exact.h"
#include "graph/csr_patcher.h"
#include "gen/random_graphs.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

TEST(SmartInitBoundsTest, BoundsOnTriangleWithPendant) {
  // Triangle {0,1,2} (weights 2) with pendant 3 attached by weight 1.
  Graph g = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 2.0}, {0, 2, 2.0}, {2, 3, 1.0}});
  const SmartInitBounds bounds = ComputeSmartInitBounds(g);
  // w_u: max edge weight with an endpoint in the closed neighborhood.
  EXPECT_DOUBLE_EQ(bounds.w[0], 2.0);
  EXPECT_DOUBLE_EQ(bounds.w[3], 2.0);  // 2's incident max reaches 3's ego net
  // Core numbers: triangle is 2-core, pendant is 1-core.
  EXPECT_EQ(bounds.tau[0], 2u);
  EXPECT_EQ(bounds.tau[3], 1u);
  // μ = τ·w/(τ+1).
  EXPECT_DOUBLE_EQ(bounds.mu[0], 2.0 * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(bounds.mu[3], 1.0 * 2.0 / 2.0);
}

TEST(SmartInitBoundsTest, IsolatedVertexGetsZeroMu) {
  Graph g = MakeGraph(3, {{0, 1, 5.0}});
  const SmartInitBounds bounds = ComputeSmartInitBounds(g);
  EXPECT_DOUBLE_EQ(bounds.mu[2], 0.0);
}

// Theorem 6 property: for any positive-clique embedding x with x_u > 0,
// f(x) <= mu_u. Verified via the exact oracle on small graphs.
class Theorem6Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem6Test, MuUpperBoundsOptimalCliqueAffinity) {
  Rng rng(GetParam());
  auto g = ErdosRenyiWeighted(10, 0.45, 0.5, 3.0, &rng);
  ASSERT_TRUE(g.ok());
  const SmartInitBounds bounds = ComputeSmartInitBounds(*g);
  auto exact = ExactDcsgaBruteForce(*g);
  ASSERT_TRUE(exact.ok());
  for (VertexId u : exact->support) {
    EXPECT_GE(bounds.mu[u] + 1e-9, exact->affinity)
        << "Theorem 6 violated at vertex " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem6Test,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68));

TEST(NewSeaTest, RejectsNegativeWeightsAndEmptyGraphs) {
  Graph g = MakeGraph(2, {{0, 1, -1.0}});
  EXPECT_FALSE(RunNewSea(g).ok());
  EXPECT_FALSE(RunNewSea(Graph(0)).ok());
}

TEST(NewSeaTest, EdgelessGraphYieldsTrivialSolution) {
  auto result = RunNewSea(Graph(5));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->affinity, 0.0);
  EXPECT_EQ(result->support.size(), 1u);
  EXPECT_EQ(result->initializations, 0u);
}

TEST(NewSeaTest, FindsPlantedHeavyClique) {
  Rng rng(123);
  GraphBuilder builder(60);
  auto noise = ErdosRenyiWeighted(60, 0.06, 0.2, 0.8, &rng);
  ASSERT_TRUE(noise.ok());
  for (const Edge& e : noise->UndirectedEdges()) {
    ASSERT_TRUE(builder.AddEdge(e.u, e.v, e.weight).ok());
  }
  std::vector<VertexId> planted{7, 19, 33, 48, 55};
  ASSERT_TRUE(AddClique(&builder, planted, 4.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = RunNewSea(*g);
  ASSERT_TRUE(result.ok());
  for (VertexId v : planted) {
    EXPECT_TRUE(std::binary_search(result->support.begin(),
                                   result->support.end(), v))
        << "missing planted vertex " << v;
  }
  EXPECT_GE(result->affinity, 4.0 * 4.0 / 5.0 - 1e-3);
  EXPECT_TRUE(IsPositiveClique(*g, result->support));
}

TEST(NewSeaTest, MatchesAllInitsOnSmallGraphs) {
  // The smart-initialization pruning is a heuristic but must not lose the
  // best solution on these instances (the paper reports it never did).
  Rng rng(321);
  for (int trial = 0; trial < 6; ++trial) {
    auto g = ErdosRenyiWeighted(15, 0.3, 0.5, 3.0, &rng);
    ASSERT_TRUE(g.ok());
    auto smart = RunNewSea(*g);
    DcsgaOptions all_options;
    all_options.shrink = ShrinkKind::kCoordinateDescent;
    auto all = RunDcsgaAllInits(*g, all_options);
    ASSERT_TRUE(smart.ok());
    ASSERT_TRUE(all.ok());
    EXPECT_NEAR(smart->affinity, all->affinity, 1e-6);
    EXPECT_LE(smart->initializations, all->initializations);
  }
}

TEST(NewSeaTest, UsesFewerInitializationsThanVertices) {
  Rng rng(555);
  GraphBuilder builder(100);
  auto noise = ErdosRenyiWeighted(100, 0.03, 0.2, 0.5, &rng);
  ASSERT_TRUE(noise.ok());
  for (const Edge& e : noise->UndirectedEdges()) {
    ASSERT_TRUE(builder.AddEdge(e.u, e.v, e.weight).ok());
  }
  std::vector<VertexId> planted{5, 25, 45, 65, 85};
  ASSERT_TRUE(AddClique(&builder, planted, 6.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto result = RunNewSea(*g);
  ASSERT_TRUE(result.ok());
  // The planted clique's high μ puts its members first; once found, every
  // noise vertex fails the μ ≤ f(best) test.
  EXPECT_LT(result->initializations, 30u);
  EXPECT_EQ(result->support, planted);
}

TEST(NewSeaTest, SupportIsAlwaysPositiveCliqueAcrossSeeds) {
  Rng rng(808);
  for (int trial = 0; trial < 6; ++trial) {
    auto signed_g = RandomSignedGraph(30, 100, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(signed_g.ok());
    Graph gd_plus = signed_g->PositivePart();
    auto result = RunNewSea(gd_plus);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(IsPositiveClique(*signed_g, result->support));
    EXPECT_TRUE(result->x.IsOnSimplex(1e-6));
    EXPECT_NEAR(result->x.Affinity(gd_plus), result->affinity, 1e-6);
  }
}

TEST(AllInitsTest, ReplicatorAndCdAgreeOnEasyGraphs) {
  GraphBuilder builder(8);
  std::vector<VertexId> clique{0, 1, 2, 3};
  ASSERT_TRUE(AddClique(&builder, clique, 2.0).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(6, 7, 0.5).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  DcsgaOptions cd_options;
  cd_options.shrink = ShrinkKind::kCoordinateDescent;
  DcsgaOptions rep_options;
  rep_options.shrink = ShrinkKind::kReplicator;
  auto cd = RunDcsgaAllInits(*g, cd_options);
  auto rep = RunDcsgaAllInits(*g, rep_options);
  ASSERT_TRUE(cd.ok());
  ASSERT_TRUE(rep.ok());
  EXPECT_NEAR(cd->affinity, rep->affinity, 1e-2);
  EXPECT_NEAR(cd->affinity, 2.0 * 3.0 / 4.0, 1e-3);
}

TEST(AllInitsTest, CollectsDistinctCliques) {
  // Two separated heavy cliques: all-inits must record both.
  GraphBuilder builder(12);
  std::vector<VertexId> clique_a{0, 1, 2};
  std::vector<VertexId> clique_b{6, 7, 8, 9};
  ASSERT_TRUE(AddClique(&builder, clique_a, 3.0).ok());
  ASSERT_TRUE(AddClique(&builder, clique_b, 2.0).ok());
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  DcsgaOptions options;
  options.collect_cliques = true;
  auto result = RunDcsgaAllInits(*g, options);
  ASSERT_TRUE(result.ok());
  auto maximal = FilterMaximalCliques(result->cliques);
  ASSERT_EQ(maximal.size(), 2u);
  std::vector<std::vector<VertexId>> supports;
  for (const auto& record : maximal) supports.push_back(record.members);
  std::sort(supports.begin(), supports.end());
  EXPECT_EQ(supports[0], clique_a);
  EXPECT_EQ(supports[1], clique_b);
}

TEST(FilterMaximalCliquesTest, RemovesSubsetsAndDuplicates) {
  auto record = [](std::vector<VertexId> members, double affinity) {
    CliqueRecord r;
    r.members = std::move(members);
    r.affinity = affinity;
    return r;
  };
  std::vector<CliqueRecord> input;
  input.push_back(record({0, 1, 2, 3}, 2.0));
  input.push_back(record({1, 2}, 1.0));        // subset
  input.push_back(record({0, 1, 2, 3}, 2.0));  // duplicate
  input.push_back(record({4, 5}, 0.5));        // disjoint survivor
  auto out = FilterMaximalCliques(std::move(input));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].members, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(out[1].members, (std::vector<VertexId>{4, 5}));
}

TEST(FilterMaximalCliquesTest, EmptyInput) {
  EXPECT_TRUE(FilterMaximalCliques({}).empty());
}

TEST(SmartInitBoundsTest, SeedOrderMatchesComparatorSort) {
  // The packed-key sort inside ComputeSmartInitBounds must reproduce the
  // documented total order — descending μ, ties broken by ascending id —
  // exactly, including on graphs full of duplicate μ values (regular-ish
  // random graphs produce many equal τ·w/(τ+1) keys) and isolated vertices
  // (μ = 0 ties at the tail).
  Rng rng(91817);
  for (int round = 0; round < 8; ++round) {
    Result<Graph> g = ErdosRenyiWeighted(60, 0.08, 1.0, 2.0, &rng);
    ASSERT_TRUE(g.ok());
    const SmartInitBounds bounds = ComputeSmartInitBounds(*g);
    std::vector<VertexId> expected(g->NumVertices());
    std::iota(expected.begin(), expected.end(), VertexId{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](VertexId a, VertexId b) {
                       return bounds.mu[a] != bounds.mu[b]
                                  ? bounds.mu[a] > bounds.mu[b]
                                  : a < b;
                     });
    EXPECT_EQ(bounds.order, expected);
  }
}

// --- smart-init bound delta maintenance (streaming update path) -----------

TEST(SmartInitBoundsDeltaTest, RandomizedBatchesMatchFullRecompute) {
  // Every field — w, τ, μ, max_incident and the seed order — must come out
  // bit-identical to ComputeSmartInitBounds on the new graph, across
  // randomized batches of GD+ inserts, removals and weight rewrites.
  Rng rng(62026);
  const VertexId n = 45;
  for (int round = 0; round < 25; ++round) {
    Result<Graph> start = ErdosRenyiWeighted(n, 0.09, 0.1, 3.0, &rng);
    ASSERT_TRUE(start.ok());
    Graph old_gd_plus = *start;
    SmartInitBounds bounds = ComputeSmartInitBounds(old_gd_plus);

    for (int batch = 0; batch < 4; ++batch) {
      // Assemble a batch of positive-part changes.
      std::map<uint64_t, double> edges;
      for (const Edge& e : old_gd_plus.UndirectedEdges()) {
        edges[PackVertexPair(e.u, e.v)] = e.weight;
      }
      std::vector<PositivePairDelta> changes;
      std::map<uint64_t, double> assignments;
      const size_t batch_size = 1 + rng.NextBounded(6);
      for (size_t i = 0; i < batch_size; ++i) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        VertexId v = static_cast<VertexId>(rng.NextBounded(n - 1));
        if (v >= u) ++v;
        const uint64_t key = PackVertexPair(u, v);
        if (assignments.count(key) != 0) continue;  // one change per pair
        const double old_weight =
            edges.count(key) != 0 ? edges[key] : 0.0;
        double new_weight;
        const uint64_t kind = rng.NextBounded(3);
        if (kind == 0 && old_weight != 0.0) {
          new_weight = 0.0;  // removal
        } else if (kind == 1 && old_weight != 0.0) {
          new_weight = rng.Uniform(0.1, 3.0);  // weight rewrite
        } else {
          new_weight = rng.Uniform(0.1, 3.0);  // insert (or rewrite)
        }
        if (old_weight == new_weight) continue;
        assignments[key] = new_weight;
        changes.push_back(PositivePairDelta{
            static_cast<VertexId>(key >> 32),
            static_cast<VertexId>(key & 0xFFFFFFFFull), old_weight,
            new_weight});
      }
      std::vector<EdgePatch> patches;
      for (const auto& [key, weight] : assignments) {
        patches.push_back(EdgePatch{static_cast<VertexId>(key >> 32),
                                    static_cast<VertexId>(key & 0xFFFFFFFFull),
                                    weight});
      }
      const Graph new_gd_plus =
          CsrPatcher::Apply(old_gd_plus, patches, /*zero_eps=*/0.0);

      ApplySmartInitBoundsDelta(old_gd_plus, new_gd_plus, changes, &bounds);
      const SmartInitBounds expected = ComputeSmartInitBounds(new_gd_plus);
      const std::string label =
          "round " + std::to_string(round) + " batch " + std::to_string(batch);
      ASSERT_EQ(bounds.tau, expected.tau) << label;
      ASSERT_EQ(bounds.order, expected.order) << label;
      for (VertexId x = 0; x < n; ++x) {
        ASSERT_EQ(std::bit_cast<uint64_t>(bounds.w[x]),
                  std::bit_cast<uint64_t>(expected.w[x]))
            << label << " w[" << x << "]";
        ASSERT_EQ(std::bit_cast<uint64_t>(bounds.mu[x]),
                  std::bit_cast<uint64_t>(expected.mu[x]))
            << label << " mu[" << x << "]";
        ASSERT_EQ(std::bit_cast<uint64_t>(bounds.max_incident[x]),
                  std::bit_cast<uint64_t>(expected.max_incident[x]))
            << label << " max_incident[" << x << "]";
      }
      old_gd_plus = new_gd_plus;
    }
  }
}

TEST(SmartInitBoundsDeltaTest, EmptyChangeListIsANoOp) {
  const Graph gd_plus =
      ::dcs::testing::MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}});
  SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  const SmartInitBounds before = bounds;
  ApplySmartInitBoundsDelta(gd_plus, gd_plus, {}, &bounds);
  EXPECT_EQ(bounds.tau, before.tau);
  EXPECT_EQ(bounds.order, before.order);
  EXPECT_EQ(bounds.w, before.w);
  EXPECT_EQ(bounds.mu, before.mu);
}

}  // namespace
}  // namespace dcs
