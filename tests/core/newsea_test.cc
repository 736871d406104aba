#include "core/newsea.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "core/descent_memo.h"

#include "oracles/exact.h"
#include "oracles/naive_newsea.h"
#include "gen/coauthor.h"
#include "graph/csr_patcher.h"
#include "graph/difference.h"
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

TEST(NewSeaTest, SeedDescentCanEndAboveItsOwnMuOnACliqueWithoutIt) {
  // Theorem 6 bounds cliques that contain u, not where a descent from u
  // ends: seed 31 of this graph descends to a 2-clique without vertex 31
  // whose affinity is more than twice μ_31. So no seed driver may assume
  // refined(u) ≤ μ_u, and a per-seed skip at μ_u ≤ f(best) is no proof.
  Rng rng(131);
  Result<Graph> gd = RandomSignedGraph(/*n=*/60, /*m=*/150,
                                       /*positive_fraction=*/0.6,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/4.0, &rng);
  ASSERT_TRUE(gd.ok());
  const Graph gd_plus = gd->PositivePart();
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  constexpr VertexId kSeed = 31;
  AffinityState state(gd_plus);
  state.ResetToVertex(kSeed);
  DcsgaResult run;
  const double refined = DescendInPlace(&state, DcsgaOptions{}, &run);
  const std::vector<VertexId> support = run.x.Support();
  EXPECT_EQ(support.size(), 2u);
  EXPECT_EQ(std::count(support.begin(), support.end(), kSeed), 0);
  EXPECT_GT(refined, 2.0 * bounds.mu[kSeed]);
  EXPECT_TRUE(IsPositiveClique(gd_plus, support));
}

TEST(NewSeaTest, RejectsNegativeWeightsAndEmptyGraphs) {
  Graph g = MakeGraph(2, {{0, 1, -1.0}});
  EXPECT_FALSE(RunNewSea(g).ok());
  EXPECT_FALSE(RunNewSea(Graph(0)).ok());
}

TEST(NewSeaTest, RejectsBoundsWithoutASeedOrder) {
  // Every producer of SmartInitBounds fills the seed order; bounds whose
  // order does not cover the graph were built for another graph (or by
  // hand) and are rejected rather than re-sorted.
  Graph g = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 3, 3.0}});
  SmartInitBounds bounds = ComputeSmartInitBounds(g);
  ASSERT_TRUE(RunNewSea(g, bounds).ok());
  bounds.order.clear();
  Result<DcsgaResult> result = RunNewSea(g, bounds);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  bounds.order = {0, 1, 2};
  EXPECT_FALSE(RunNewSea(g, bounds).ok());
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

TEST(SmartInitBoundsDeltaTest, LargeStructuralBatchTakesTheCoreFallback) {
  // Past 32 structural GD+ changes the delta path re-runs CoreNumbers
  // instead of the per-edge traversals. This batch closes a 12-clique (≥ 40
  // inserts) and removes a few edges elsewhere, so τ moves and the fallback
  // must hand back the fresh core numbers, not the stale ones.
  Rng rng(4747);
  const VertexId n = 70;
  Result<Graph> start = ErdosRenyiWeighted(n, 0.06, 0.1, 3.0, &rng);
  ASSERT_TRUE(start.ok());
  const Graph old_gd_plus = *start;
  SmartInitBounds bounds = ComputeSmartInitBounds(old_gd_plus);

  std::map<uint64_t, double> assignments;
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) {
      if (old_gd_plus.EdgeWeight(u, v) == 0.0) {
        assignments[PackVertexPair(u, v)] = rng.Uniform(0.1, 3.0);
      }
    }
  }
  size_t inserts = assignments.size();
  size_t removals = 0;
  for (const Edge& e : old_gd_plus.UndirectedEdges()) {
    if (e.u >= 40 && removals < 6) {
      assignments[PackVertexPair(e.u, e.v)] = 0.0;
      ++removals;
    }
  }
  ASSERT_GT(inserts + removals, 32u);
  std::vector<PositivePairDelta> changes;
  std::vector<EdgePatch> patches;
  for (const auto& [key, weight] : assignments) {
    const VertexPair pair = UnpackVertexPair(key);
    changes.push_back(PositivePairDelta{
        pair.u, pair.v, old_gd_plus.EdgeWeight(pair.u, pair.v), weight});
    patches.push_back(EdgePatch{pair.u, pair.v, weight});
  }
  const Graph new_gd_plus =
      CsrPatcher::Apply(old_gd_plus, patches, /*zero_eps=*/0.0);
  ApplySmartInitBoundsDelta(old_gd_plus, new_gd_plus, changes, &bounds);
  const SmartInitBounds expected = ComputeSmartInitBounds(new_gd_plus);
  ASSERT_NE(expected.tau, ComputeSmartInitBounds(old_gd_plus).tau);
  EXPECT_EQ(bounds.tau, expected.tau);
  EXPECT_EQ(bounds.order, expected.order);
  for (VertexId x = 0; x < n; ++x) {
    EXPECT_EQ(std::bit_cast<uint64_t>(bounds.mu[x]),
              std::bit_cast<uint64_t>(expected.mu[x]))
        << "mu[" << x << "]";
    EXPECT_EQ(std::bit_cast<uint64_t>(bounds.w[x]),
              std::bit_cast<uint64_t>(expected.w[x]))
        << "w[" << x << "]";
    EXPECT_EQ(std::bit_cast<uint64_t>(bounds.max_incident[x]),
              std::bit_cast<uint64_t>(expected.max_incident[x]))
        << "max_incident[" << x << "]";
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

// --- the seed driver against the naive sequential loops -------------------

// Bit equality of two DcsgaResults: the answer, every work counter and every
// collected clique record, in order.
void ExpectSameRun(const DcsgaResult& got, const DcsgaResult& want,
                   const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.affinity),
            std::bit_cast<uint64_t>(want.affinity))
      << label;
  EXPECT_EQ(got.support, want.support) << label;
  ASSERT_EQ(got.x.x.size(), want.x.x.size()) << label;
  for (size_t v = 0; v < got.x.x.size(); ++v) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got.x.x[v]),
              std::bit_cast<uint64_t>(want.x.x[v]))
        << label << " x[" << v << "]";
  }
  EXPECT_EQ(got.initializations, want.initializations) << label;
  EXPECT_EQ(got.pruned_seeds, want.pruned_seeds) << label;
  EXPECT_EQ(got.cd_iterations, want.cd_iterations) << label;
  EXPECT_EQ(got.replicator_sweeps, want.replicator_sweeps) << label;
  EXPECT_EQ(got.expansion_errors, want.expansion_errors) << label;
  ASSERT_EQ(got.cliques.size(), want.cliques.size()) << label;
  for (size_t i = 0; i < got.cliques.size(); ++i) {
    const CliqueRecord& a = got.cliques[i];
    const CliqueRecord& b = want.cliques[i];
    EXPECT_EQ(a.members, b.members) << label << " clique " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.affinity),
              std::bit_cast<uint64_t>(b.affinity))
        << label << " clique " << i;
    ASSERT_EQ(a.weights.size(), b.weights.size()) << label << " clique " << i;
    for (size_t j = 0; j < a.weights.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.weights[j]),
                std::bit_cast<uint64_t>(b.weights[j]))
          << label << " clique " << i << " weight " << j;
    }
  }
}

// Runs RunNewSea and RunDcsgaAllInits at one shard under both Shrink kinds,
// with and without clique collection, against the naive loops.
void ExpectDriverMatchesNaiveLoops(const Graph& gd_plus,
                                   const std::string& name) {
  ASSERT_GT(gd_plus.NumEdges(), 0u) << name;
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  for (const ShrinkKind shrink :
       {ShrinkKind::kCoordinateDescent, ShrinkKind::kReplicator}) {
    for (const bool collect : {false, true}) {
      DcsgaOptions options;
      options.shrink = shrink;
      options.collect_cliques = collect;
      const std::string label =
          name + (shrink == ShrinkKind::kReplicator ? " replicator" : " cd") +
          (collect ? " collect" : "");

      Result<DcsgaResult> newsea = RunNewSea(gd_plus, bounds, options);
      ASSERT_TRUE(newsea.ok()) << label << newsea.status().ToString();
      ExpectSameRun(*newsea, ::dcs::testing::NaiveNewSea(gd_plus, bounds,
                                                         options),
                    label + " NewSEA");

      Result<DcsgaResult> all = RunDcsgaAllInits(gd_plus, options);
      ASSERT_TRUE(all.ok()) << label << all.status().ToString();
      ExpectSameRun(*all, ::dcs::testing::NaiveAllInits(gd_plus, options),
                    label + " all-inits");
    }
  }
}

TEST(SeedDriverOracleTest, MatchesNaiveLoopsOnRandomSignedGraphs) {
  for (const uint64_t seed : {3u, 17u, 29u, 41u}) {
    Rng rng(seed);
    // Sparse enough to leave isolated GD+ vertices (pruned by all-inits).
    Result<Graph> gd = RandomSignedGraph(/*n=*/60, /*m=*/150,
                                         /*positive_fraction=*/0.6,
                                         /*magnitude_lo=*/0.5,
                                         /*magnitude_hi=*/3.0, &rng);
    ASSERT_TRUE(gd.ok());
    ExpectDriverMatchesNaiveLoops(gd->PositivePart(),
                                  "signed seed " + std::to_string(seed));
  }
}

TEST(SeedDriverOracleTest, MatchesNaiveLoopsOnGeneratorGraph) {
  Rng rng(42);
  CoauthorConfig config;
  config.num_authors = 300;
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  ASSERT_TRUE(data.ok());
  Result<Graph> gd = BuildDifferenceGraph(data->g1, data->g2);
  ASSERT_TRUE(gd.ok());
  ExpectDriverMatchesNaiveLoops(gd->PositivePart(), "coauthor");
}

TEST(SeedDriverOracleTest, MatchesNaiveLoopsOnFig1Pair) {
  ExpectDriverMatchesNaiveLoops(::dcs::testing::Fig1Gd().PositivePart(),
                                "Fig. 1");
}

// --- the descent memo -------------------------------------------------------

Graph MemoTestGraph(uint64_t seed) {
  Rng rng(seed);
  Result<Graph> gd = RandomSignedGraph(/*n=*/120, /*m=*/600,
                                       /*positive_fraction=*/0.6,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(gd.ok());
  return gd->PositivePart();
}

// A memo-carrying NewSEA and harvest equal the memo-less runs bit for bit,
// counters and clique records included, on the filling pass and on the
// replaying one.
void ExpectMemoRunsMatch(const Graph& gd_plus, DescentMemo* memo,
                         const std::string& label) {
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  DcsgaOptions harvest;
  harvest.collect_cliques = true;
  Result<DcsgaResult> newsea = RunNewSea(gd_plus, bounds, {}, nullptr, memo);
  Result<DcsgaResult> all = RunDcsgaAllInits(gd_plus, harvest, memo);
  ASSERT_TRUE(newsea.ok() && all.ok()) << label;
  ExpectSameRun(*newsea, *RunNewSea(gd_plus, bounds), label + " NewSEA");
  ExpectSameRun(*all, *RunDcsgaAllInits(gd_plus, harvest),
                label + " all-inits");
  for (const uint32_t threads : {2u, 4u}) {
    DcsgaOptions sharded;
    sharded.parallelism = threads;
    Result<DcsgaResult> run =
        RunNewSea(gd_plus, bounds, sharded, nullptr, memo);
    ASSERT_TRUE(run.ok()) << label;
    EXPECT_EQ(std::bit_cast<uint64_t>(run->affinity),
              std::bit_cast<uint64_t>(newsea->affinity))
        << label << " " << threads << " shards";
    EXPECT_EQ(run->x.x, newsea->x.x) << label << " " << threads << " shards";
  }
}

TEST(DescentMemoTest, ReplaysAreBitIdenticalToFreshDescents) {
  for (const uint64_t seed : {5u, 23u}) {
    const Graph gd_plus = MemoTestGraph(seed);
    DescentMemo memo;
    const std::string label = "graph " + std::to_string(seed);
    ExpectMemoRunsMatch(gd_plus, &memo, label + " filling");
    const uint64_t filled_replays = memo.replays();
    const size_t records = memo.size();
    EXPECT_GT(records, 0u);
    ExpectMemoRunsMatch(gd_plus, &memo, label + " replaying");
    // The second pass descends nothing: every seed it reaches is recorded.
    EXPECT_EQ(memo.size(), records) << label;
    EXPECT_GT(memo.replays(), filled_replays) << label;
    const uint64_t before = memo.replays();
    Result<DcsgaResult> all = RunDcsgaAllInits(gd_plus, {}, &memo);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(memo.replays() - before, all->initializations) << label;
  }
}

TEST(DescentMemoTest, OtherDescentOptionsBypassTheMemo) {
  const Graph gd_plus = MemoTestGraph(5);
  DescentMemo memo;
  ASSERT_TRUE(RunDcsgaAllInits(gd_plus, {}, &memo).ok());
  const size_t records = memo.size();
  const uint64_t replays = memo.replays();

  DcsgaOptions looser;
  looser.seacd.descent.epsilon_scale = 5e-2;
  DcsgaOptions replicator;
  replicator.shrink = ShrinkKind::kReplicator;
  for (const DcsgaOptions& options : {looser, replicator}) {
    Result<DcsgaResult> bypassed = RunDcsgaAllInits(gd_plus, options, &memo);
    ASSERT_TRUE(bypassed.ok());
    ExpectSameRun(*bypassed, *RunDcsgaAllInits(gd_plus, options), "bypass");
  }
  EXPECT_EQ(memo.size(), records);
  EXPECT_EQ(memo.replays(), replays);
  EXPECT_FALSE(memo.Serves(gd_plus.NumVertices(), looser));
  EXPECT_FALSE(memo.Serves(gd_plus.NumVertices() + 1, DcsgaOptions{}));
  EXPECT_TRUE(memo.Serves(gd_plus.NumVertices(), DcsgaOptions{}));
}

// Applies `patches` to `gd_plus` and returns the patched graph with the
// endpoints of the pairs whose weight changed.
Graph PatchWithEndpoints(const Graph& gd_plus,
                         const std::vector<EdgePatch>& patches,
                         std::vector<VertexId>* endpoints) {
  for (const EdgePatch& patch : patches) {
    if (gd_plus.EdgeWeight(patch.u, patch.v) != patch.weight) {
      endpoints->push_back(patch.u);
      endpoints->push_back(patch.v);
    }
  }
  std::vector<EdgePatch> sorted = patches;
  std::sort(sorted.begin(), sorted.end(),
            [](const EdgePatch& a, const EdgePatch& b) {
              return PackVertexPair(a.u, a.v) < PackVertexPair(b.u, b.v);
            });
  return CsrPatcher::Apply(gd_plus, sorted, /*zero_eps=*/0.0);
}

TEST(DescentMemoTest, CarriedRecordsEqualFreshDescentsAfterAPatch) {
  Rng rng(77);
  Graph gd_plus = MemoTestGraph(23);
  const VertexId n = gd_plus.NumVertices();
  auto memo = std::make_shared<DescentMemo>();
  ASSERT_TRUE(RunDcsgaAllInits(gd_plus, {}, memo.get()).ok());
  size_t dropped = 0;
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<EdgePatch> patches;
    std::set<uint64_t> pairs;
    while (patches.size() < 4) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n - 1));
      if (v >= u) ++v;
      if (!pairs.insert(PackVertexPair(u, v)).second) continue;
      const double weight =
          rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.5, 3.0);
      patches.push_back(EdgePatch{std::min(u, v), std::max(u, v), weight});
    }
    std::vector<VertexId> endpoints;
    const Graph patched = PatchWithEndpoints(gd_plus, patches, &endpoints);
    std::shared_ptr<DescentMemo> carried = memo->CarriedOver(endpoints);
    ASSERT_TRUE(carried->Serves(n, DcsgaOptions{}));
    ASSERT_LE(carried->size(), memo->size());
    dropped += memo->size() - carried->size();
    // Every kept record is the descent the patched graph runs.
    AffinityState state(patched);
    size_t kept = 0;
    for (VertexId seed = 0; seed < n; ++seed) {
      const DescentRecord* record = carried->Find(seed);
      if (record == nullptr) continue;
      ++kept;
      state.ResetToVertex(seed);
      DcsgaResult run;
      const double affinity = DescendInPlace(&state, DcsgaOptions{}, &run);
      const std::string label = "batch " + std::to_string(batch) +
                                " seed " + std::to_string(seed);
      EXPECT_EQ(std::bit_cast<uint64_t>(record->affinity),
                std::bit_cast<uint64_t>(affinity))
          << label;
      EXPECT_EQ(record->cd_iterations, run.cd_iterations) << label;
      std::vector<VertexId> support(state.support().begin(),
                                    state.support().end());
      std::sort(support.begin(), support.end());
      EXPECT_EQ(record->members, support) << label;
      for (size_t i = 0; i < support.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(record->weights[i]),
                  std::bit_cast<uint64_t>(state.x(support[i])))
            << label;
      }
      EXPECT_EQ(record->read_set,
                std::vector<VertexId>(state.read_set().begin(),
                                      state.read_set().end()))
          << label;
    }
    EXPECT_GT(kept, 0u);
    // The carried memo answers as a fresh one does.
    ExpectMemoRunsMatch(patched, carried.get(),
                        "batch " + std::to_string(batch));
    gd_plus = patched;
    memo = carried;
  }
  EXPECT_GT(dropped, 0u);
}

TEST(DescentMemoTest, DropsARecordWhoseReadSetMeetsAChangeOutsideItsSupport) {
  // A change that touches a descent's read set only at a vertex the
  // refined support does not hold still invalidates the record: that row
  // steered the descent even though the answer left it.
  const Graph gd_plus = MemoTestGraph(5);
  const VertexId n = gd_plus.NumVertices();
  DescentMemo memo;
  ASSERT_TRUE(RunDcsgaAllInits(gd_plus, {}, &memo).ok());
  const DescentRecord* target = nullptr;
  VertexId outside = 0;
  for (VertexId seed = 0; seed < n && target == nullptr; ++seed) {
    const DescentRecord* record = memo.Find(seed);
    if (record == nullptr) continue;
    for (const VertexId v : record->read_set) {
      if (!std::binary_search(record->members.begin(), record->members.end(),
                              v)) {
        target = record;
        outside = v;
        break;
      }
    }
  }
  ASSERT_NE(target, nullptr) << "no descent read a row outside its support";
  // The other endpoint lies outside the read set, so the change meets the
  // read set at `outside` alone.
  VertexId far = 0;
  while (far == outside ||
         std::count(target->read_set.begin(), target->read_set.end(), far)) {
    ++far;
  }
  const std::vector<VertexId> endpoints = {outside, far};
  std::shared_ptr<DescentMemo> carried = memo.CarriedOver(endpoints);
  EXPECT_EQ(carried->Find(target->seed), nullptr);
  // Records whose read sets avoid both endpoints survive.
  size_t survivors = 0;
  for (VertexId seed = 0; seed < n; ++seed) {
    const DescentRecord* record = memo.Find(seed);
    if (record == nullptr) continue;
    const bool touched =
        std::count(record->read_set.begin(), record->read_set.end(),
                   outside) != 0 ||
        std::count(record->read_set.begin(), record->read_set.end(), far) != 0;
    EXPECT_EQ(carried->Find(seed) != nullptr, !touched) << "seed " << seed;
    survivors += touched ? 0 : 1;
  }
  EXPECT_EQ(carried->size(), survivors);
}

}  // namespace
}  // namespace dcs
