// Golden scalar-vs-vectorized bit-identity suite for the kernel layer
// (core/kernels.h). Every default kernel must produce the same bits under
// forced-scalar and forced-AVX2 dispatch — on elementwise kernels, on the
// graph-producing twins of the reference builders, end-to-end through
// RunNewSea at thread counts {1,2,4,7}, and through a whole Discrete-setting
// mine (difference, discretize, GD+, solve) on a planted pair. The
// reassociating fast_math reduction is held to thread-count invariance plus
// a tolerance against the exact path instead. AVX2 halves skip on hardware
// without AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "core/kernels.h"
#include "core/newsea.h"
#include "gen/coauthor.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

// Restores automatic dispatch no matter how the test exits.
struct ScopedIsa {
  explicit ScopedIsa(KernelIsa isa) { ForceKernelIsa(isa); }
  ~ScopedIsa() { ResetForcedKernelIsa(); }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

#define SKIP_WITHOUT_AVX2()                              \
  if (!KernelCpuHasAvx2()) {                             \
    GTEST_SKIP() << "CPU has no AVX2; scalar-only host"; \
  }

// Mixed magnitudes, signs, exact threshold hits, signed zeros and the
// values a discretize/clamp/reduce kernel could round differently.
std::vector<double> AdversarialDoubles(const DiscretizeSpec& spec) {
  std::vector<double> values = {
      0.0,
      -0.0,
      spec.weak_pos,
      spec.strong_pos,
      spec.strong_neg,
      std::nextafter(spec.weak_pos, 0.0),
      std::nextafter(spec.weak_pos, 1e300),
      std::nextafter(spec.strong_pos, 0.0),
      std::nextafter(spec.strong_pos, 1e300),
      std::nextafter(spec.strong_neg, 0.0),
      std::nextafter(spec.strong_neg, -1e300),
      -1e-300,
      1e-300,
      -1e300,
      1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      1.0 / 3.0,
      -2.0 / 3.0,
  };
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    values.push_back((rng.NextDouble() - 0.5) * 20.0);
  }
  return values;
}

TEST(KernelDispatchTest, ForceAndResetControlActiveIsa) {
  {
    ScopedIsa scalar(KernelIsa::kScalar);
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  }
  const KernelIsa automatic = ActiveKernelIsa();
  EXPECT_EQ(automatic,
            KernelCpuHasAvx2() ? KernelIsa::kAvx2 : KernelIsa::kScalar);
  EXPECT_STREQ(KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(KernelIsaName(KernelIsa::kAvx2), "avx2");
}

TEST(KernelDispatchTest, CountersAdvanceWhenKernelsRun) {
  const KernelCounters before = KernelCountersSnapshot();
  std::vector<double> values(64, 1.5);
  DiscretizeSpec spec;
  DiscretizeMapPacked(values.data(), values.data(), values.size(), spec);
  ClampAbovePacked(values.data(), values.size(), 1.0);
  const KernelCounters after = KernelCountersSnapshot();
  EXPECT_EQ(after.discretize_elements - before.discretize_elements, 64u);
  EXPECT_EQ(after.clamp_elements - before.clamp_elements, 64u);
  EXPECT_GE((after.avx2_calls + after.scalar_calls) -
                (before.avx2_calls + before.scalar_calls),
            2u);
}

TEST(KernelBitIdentityTest, DiscretizeMapMatchesScalarReference) {
  SKIP_WITHOUT_AVX2();
  DiscretizeSpec spec;
  const std::vector<double> input = AdversarialDoubles(spec);
  std::vector<double> scalar_out(input.size()), avx2_out(input.size());
  {
    ScopedIsa isa(KernelIsa::kScalar);
    DiscretizeMapPacked(input.data(), scalar_out.data(), input.size(), spec);
  }
  {
    ScopedIsa isa(KernelIsa::kAvx2);
    DiscretizeMapPacked(input.data(), avx2_out.data(), input.size(), spec);
  }
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_TRUE(SameBits(scalar_out[i], spec.Map(input[i]))) << input[i];
    EXPECT_TRUE(SameBits(scalar_out[i], avx2_out[i])) << input[i];
  }
}

TEST(KernelBitIdentityTest, DiscretizeMapHandlesNonDefaultSpec) {
  SKIP_WITHOUT_AVX2();
  DiscretizeSpec spec;
  spec.strong_pos = 0.75;
  spec.weak_pos = 0.75;  // weak == strong: the >= chain must pick level_two
  spec.strong_neg = -1.0 / 3.0;
  spec.level_one = 0.5;
  spec.level_two = 7.0;
  ASSERT_TRUE(spec.Validate().ok());
  const std::vector<double> input = AdversarialDoubles(spec);
  std::vector<double> scalar_out(input.size()), avx2_out(input.size());
  {
    ScopedIsa isa(KernelIsa::kScalar);
    DiscretizeMapPacked(input.data(), scalar_out.data(), input.size(), spec);
  }
  {
    ScopedIsa isa(KernelIsa::kAvx2);
    DiscretizeMapPacked(input.data(), avx2_out.data(), input.size(), spec);
  }
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_TRUE(SameBits(scalar_out[i], avx2_out[i])) << input[i];
  }
}

TEST(KernelBitIdentityTest, ClampMatchesStdMinBitwise) {
  SKIP_WITHOUT_AVX2();
  const std::vector<double> input = AdversarialDoubles(DiscretizeSpec{});
  for (const double cap : {1.0, 2.5, 1e-300, 1e300}) {
    std::vector<double> scalar_out = input, avx2_out = input;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      ClampAbovePacked(scalar_out.data(), scalar_out.size(), cap);
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      ClampAbovePacked(avx2_out.data(), avx2_out.size(), cap);
    }
    for (size_t i = 0; i < input.size(); ++i) {
      EXPECT_TRUE(SameBits(scalar_out[i], std::min(input[i], cap)))
          << input[i] << " cap " << cap;
      EXPECT_TRUE(SameBits(scalar_out[i], avx2_out[i]))
          << input[i] << " cap " << cap;
    }
  }
}

TEST(KernelBitIdentityTest, AxpyScatterMatchesScalarLoop) {
  SKIP_WITHOUT_AVX2();
  Rng rng(7);
  const size_t n = 500;
  for (const size_t count : {0ul, 1ul, 3ul, 4ul, 7ul, 64ul, 333ul}) {
    std::vector<VertexId> targets(count);
    std::vector<double> weights(count);
    std::vector<double> dx_scalar(n), dx_avx2(n);
    for (size_t i = 0; i < count; ++i) {
      targets[i] = static_cast<VertexId>(rng.Next() % n);
      weights[i] = (rng.NextDouble() - 0.5) * 6.0;
    }
    for (size_t i = 0; i < n; ++i) {
      dx_scalar[i] = (rng.NextDouble() - 0.5);
      dx_avx2[i] = dx_scalar[i];
    }
    const double delta = 0.37;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      AxpyScatter(targets.data(), weights.data(), count, delta,
                  dx_scalar.data());
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      AxpyScatter(targets.data(), weights.data(), count, delta,
                  dx_avx2.data());
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(dx_scalar[i], dx_avx2[i])) << "count " << count;
    }
  }
}

TEST(KernelBitIdentityTest, GradientExtremesMatchesScalarFirstWins) {
  SKIP_WITHOUT_AVX2();
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 64 + trial;
    std::vector<double> x(n, 0.0), dx(n, 0.0);
    std::vector<VertexId> candidates;
    for (size_t v = 0; v < n; ++v) {
      candidates.push_back(static_cast<VertexId>(v));
      // Ternary buckets force ties, signed zeros and ineligible lanes: some
      // x pinned at 1.0 (max-ineligible), some at 0.0 (min-ineligible), dx
      // drawn from a tiny set so duplicates are guaranteed.
      const uint64_t bucket = rng.Next() % 5;
      x[v] = bucket == 0 ? 1.0 : (bucket == 1 ? 0.0 : 0.25);
      const uint64_t grad_bucket = rng.Next() % 4;
      dx[v] = grad_bucket == 0   ? 0.0
              : grad_bucket == 1 ? -0.0
              : grad_bucket == 2 ? 0.5
                                 : -0.5;
    }
    GradExtremes scalar_ext, avx2_ext;
    bool scalar_ok, avx2_ok;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      scalar_ok = ScanGradientExtremes(candidates.data(), candidates.size(),
                                       x.data(), dx.data(), &scalar_ext);
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      avx2_ok = ScanGradientExtremes(candidates.data(), candidates.size(),
                                     x.data(), dx.data(), &avx2_ext);
    }
    ASSERT_EQ(scalar_ok, avx2_ok);
    if (!scalar_ok) continue;
    EXPECT_EQ(scalar_ext.argmax, avx2_ext.argmax);
    EXPECT_EQ(scalar_ext.argmin, avx2_ext.argmin);
    EXPECT_TRUE(SameBits(scalar_ext.max_grad, avx2_ext.max_grad));
    EXPECT_TRUE(SameBits(scalar_ext.min_grad, avx2_ext.min_grad));
  }
}

TEST(KernelBitIdentityTest, SupportReduceExactMatchesOrderedSum) {
  SKIP_WITHOUT_AVX2();
  Rng rng(13);
  for (const size_t count : {0ul, 1ul, 5ul, 8ul, 64ul, 1001ul}) {
    const size_t n = count + 10;
    std::vector<VertexId> support(count);
    std::vector<double> x(n), dx(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.NextDouble();
      dx[i] = (rng.NextDouble() - 0.5) * 4.0;
    }
    for (size_t i = 0; i < count; ++i) {
      support[i] = static_cast<VertexId>(rng.Next() % n);
    }
    double ordered = 0.0;
    for (size_t i = 0; i < count; ++i) {
      ordered += x[support[i]] * dx[support[i]];
    }
    double scalar_f, avx2_f, reassoc_f;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      scalar_f = SupportReduce(support.data(), count, x.data(), dx.data(),
                               /*allow_reassociation=*/false);
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      avx2_f = SupportReduce(support.data(), count, x.data(), dx.data(),
                             /*allow_reassociation=*/false);
      reassoc_f = SupportReduce(support.data(), count, x.data(), dx.data(),
                                /*allow_reassociation=*/true);
    }
    EXPECT_TRUE(SameBits(ordered, scalar_f)) << count;
    EXPECT_TRUE(SameBits(ordered, avx2_f)) << count;
    EXPECT_NEAR(reassoc_f, ordered, 1e-9 * (1.0 + std::fabs(ordered)))
        << count;
  }
}

TEST(KernelBitIdentityTest, StagedRowLookupMatchesGraphEdgeWeight) {
  Rng rng(17);
  Result<Graph> graph = ErdosRenyiWeighted(120, 0.1, 0.5, 3.0, &rng);
  ASSERT_TRUE(graph.ok());
  std::vector<VertexId> targets;
  std::vector<double> weights;
  StageAdjacencySoa(*graph, &targets, &weights);
  size_t offset = 0;
  for (VertexId u = 0; u < graph->NumVertices(); ++u) {
    const size_t degree = graph->Degree(u);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      EXPECT_TRUE(SameBits(
          StagedRowLookup(targets.data() + offset, weights.data() + offset,
                          degree, v),
          graph->EdgeWeight(u, v)))
          << u << "," << v;
    }
    offset += degree;
  }
}

// --- Graph-producing kernel twins ------------------------------------------

void ExpectGraphsBitIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    const auto row_a = a.NeighborsOf(u);
    const auto row_b = b.NeighborsOf(u);
    ASSERT_EQ(row_a.size(), row_b.size()) << "row " << u;
    for (size_t i = 0; i < row_a.size(); ++i) {
      EXPECT_EQ(row_a[i].to, row_b[i].to) << "row " << u;
      EXPECT_TRUE(SameBits(row_a[i].weight, row_b[i].weight)) << "row " << u;
    }
  }
}

TEST(GraphKernelsTest, DifferenceTwinMatchesReferenceOnRandomPairs) {
  for (const uint64_t seed : {3u, 21u, 77u}) {
    Rng rng(seed);
    Result<Graph> g1 = ErdosRenyiWeighted(200, 0.05, 0.5, 3.0, &rng);
    Result<Graph> g2 = ErdosRenyiWeighted(200, 0.05, 0.5, 3.0, &rng);
    ASSERT_TRUE(g1.ok() && g2.ok());
    for (const double alpha : {1.0, 0.5, 1.0 / 3.0}) {
      Result<Graph> reference = BuildDifferenceGraph(*g1, *g2, alpha);
      Result<Graph> kernel = GraphKernels::BuildDifferenceGraph(*g1, *g2, alpha);
      ASSERT_TRUE(reference.ok() && kernel.ok());
      ExpectGraphsBitIdentical(*reference, *kernel);
    }
  }
}

TEST(GraphKernelsTest, DifferenceTwinDropsCancellationsLikeTheBuilder) {
  // Identical edge in both graphs with alpha=1 cancels to exactly 0; a
  // near-identical one leaves a residue below the builder's zero_eps. Both
  // must be absent from both implementations.
  const Graph g1 = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 3, 1e-13}});
  const Graph g2 = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 2e-13}});
  Result<Graph> reference = BuildDifferenceGraph(g1, g2, 1.0);
  Result<Graph> kernel = GraphKernels::BuildDifferenceGraph(g1, g2, 1.0);
  ASSERT_TRUE(reference.ok() && kernel.ok());
  ExpectGraphsBitIdentical(*reference, *kernel);
  EXPECT_FALSE(kernel->HasEdge(0, 1));
  EXPECT_FALSE(kernel->HasEdge(2, 3));
  EXPECT_TRUE(kernel->HasEdge(1, 2));
}

TEST(GraphKernelsTest, DifferenceTwinMirrorsReferenceErrors) {
  const Graph small = MakeGraph(3, {{0, 1, 1.0}});
  const Graph large = MakeGraph(4, {{0, 1, 1.0}});
  EXPECT_TRUE(GraphKernels::BuildDifferenceGraph(small, large, 1.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GraphKernels::BuildDifferenceGraph(small, small, 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GraphKernels::BuildDifferenceGraph(small, small, -2.0)
                  .status()
                  .IsInvalidArgument());
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
    Result<Graph> reference = DiscretizeWeights(*gd, spec);
    Result<Graph> kernel = GraphKernels::DiscretizeWeights(*gd, spec);
    ASSERT_TRUE(reference.ok() && kernel.ok());
    ExpectGraphsBitIdentical(*reference, *kernel);
  }
  DiscretizeSpec invalid;
  invalid.weak_pos = -1.0;
  const Graph g = MakeGraph(2, {{0, 1, 1.0}});
  EXPECT_TRUE(
      GraphKernels::DiscretizeWeights(g, invalid).status().IsInvalidArgument());
}

TEST(KernelBitIdentityTest, SeedOrderSortMatchesComparatorSort) {
  SKIP_WITHOUT_AVX2();
  // Duplicate-heavy, signed, zero-laden mu vectors: the radix path must
  // reproduce the comparator sort's order exactly, including the
  // ascending-id tie-break and −0 == +0 ties.
  Rng rng(314159);
  for (int round = 0; round < 6; ++round) {
    std::vector<double> mu(237);
    for (double& m : mu) {
      switch (rng.NextBounded(5)) {
        case 0: m = 0.0; break;
        case 1: m = -0.0; break;
        case 2: m = static_cast<double>(rng.NextBounded(4)); break;
        case 3: m = -rng.Uniform(0.0, 3.0); break;
        default: m = rng.Uniform(0.0, 8.0); break;
      }
    }
    std::vector<VertexId> expected(mu.size());
    std::iota(expected.begin(), expected.end(), VertexId{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](VertexId a, VertexId b) {
                       return mu[a] != mu[b] ? mu[a] > mu[b] : a < b;
                     });
    std::vector<VertexId> scalar_order;
    std::vector<VertexId> kernel_order;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      SeedOrderSort(mu, &scalar_order);
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      SeedOrderSort(mu, &kernel_order);
    }
    EXPECT_EQ(scalar_order, expected);
    EXPECT_EQ(kernel_order, expected);
  }
  // All-distinct mu past the counting table's capacity exercises the radix
  // fallback; it must agree with the comparator sort too.
  std::vector<double> distinct(3000);
  for (double& m : distinct) m = rng.NextDouble() * 16.0 - 4.0;
  std::vector<VertexId> expected(distinct.size());
  std::iota(expected.begin(), expected.end(), VertexId{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&](VertexId a, VertexId b) {
                     return distinct[a] != distinct[b]
                                ? distinct[a] > distinct[b]
                                : a < b;
                   });
  std::vector<VertexId> radix_order;
  {
    ScopedIsa isa(KernelIsa::kAvx2);
    SeedOrderSort(distinct, &radix_order);
  }
  EXPECT_EQ(radix_order, expected);

  // Degenerate sizes.
  std::vector<VertexId> order;
  SeedOrderSort({}, &order);
  EXPECT_TRUE(order.empty());
  SeedOrderSort({7.5}, &order);
  EXPECT_EQ(order, std::vector<VertexId>{0});
}

TEST(GraphKernelsTest, PositivePartTwinMatchesReference) {
  for (const uint64_t seed : {11u, 47u}) {
    Rng rng(seed);
    Result<Graph> gd = RandomSignedGraph(250, 2000, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(gd.ok());
    ExpectGraphsBitIdentical(gd->PositivePart(),
                             GraphKernels::PositivePart(*gd));
  }
  // Edge cases: empty graph, all-negative rows (everything dropped) and an
  // isolated middle vertex.
  ExpectGraphsBitIdentical(Graph(5).PositivePart(),
                           GraphKernels::PositivePart(Graph(5)));
  const Graph negative =
      MakeGraph(4, {{0, 1, -2.0}, {1, 2, -0.5}, {2, 3, -1.0}});
  ExpectGraphsBitIdentical(negative.PositivePart(),
                           GraphKernels::PositivePart(negative));
  EXPECT_EQ(GraphKernels::PositivePart(negative).NumEdges(), 0u);
  const Graph mixed = MakeGraph(5, {{0, 1, 3.0}, {0, 3, -1.0}, {3, 4, 2.0}});
  ExpectGraphsBitIdentical(mixed.PositivePart(),
                           GraphKernels::PositivePart(mixed));
}

TEST(GraphKernelsTest, ClampTwinMatchesReference) {
  Rng rng(23);
  Result<Graph> gd = RandomSignedGraph(200, 1500, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  for (const double cap : {0.75, 2.0, 100.0}) {
    ExpectGraphsBitIdentical(gd->WeightsClampedAbove(cap),
                             GraphKernels::WeightsClampedAbove(*gd, cap));
  }
}

// --- End-to-end: solver bit-identity across ISA × thread count -------------

Graph SolverFixtureGdPlus(uint64_t seed) {
  Rng rng(seed);
  Result<Graph> gd =
      RandomSignedGraph(/*n=*/300, /*m=*/2400, /*positive_fraction=*/0.7,
                        /*magnitude_lo=*/0.5, /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(gd.ok());
  return gd->PositivePart();
}

TEST(KernelSolverTest, NewSeaBitIdenticalAcrossIsaAndThreads) {
  SKIP_WITHOUT_AVX2();
  const Graph gd_plus = SolverFixtureGdPlus(41);
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  DcsgaOptions reference_options;  // parallelism = 1
  DcsgaResult reference;
  {
    ScopedIsa isa(KernelIsa::kScalar);
    Result<DcsgaResult> ref_run = RunNewSea(gd_plus, bounds, reference_options);
    ASSERT_TRUE(ref_run.ok());
    reference = std::move(*ref_run);
  }
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    for (const uint32_t threads : {1u, 2u, 4u, 7u}) {
      ScopedIsa scoped(isa);
      DcsgaOptions options;
      options.parallelism = threads;
      Result<DcsgaResult> run = RunNewSea(gd_plus, bounds, options);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->affinity, reference.affinity)
          << KernelIsaName(isa) << " x" << threads;
      EXPECT_EQ(run->support, reference.support)
          << KernelIsaName(isa) << " x" << threads;
      EXPECT_EQ(run->x.x, reference.x.x)
          << KernelIsaName(isa) << " x" << threads;
    }
  }
}

// The mine a Discrete-setting request runs, twice over a planted co-author
// pair: the graph/difference.h builders with a forced-scalar solve, then the
// GraphKernels twins with automatic dispatch. The answers must match bit for
// bit.
TEST(KernelSolverTest, KernelPipelineMatchesReferencePipeline) {
  Rng rng(20180416);
  CoauthorConfig config;
  config.num_authors = 600;
  config.emerging_sizes = {4, 7};
  config.disappearing_sizes = {6, 2, 8};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  ASSERT_TRUE(data.ok());
  const DiscretizeSpec spec;

  DcsgaResult reference;
  {
    ScopedIsa isa(KernelIsa::kScalar);
    Result<Graph> gd = BuildDifferenceGraph(data->g1, data->g2);
    ASSERT_TRUE(gd.ok());
    Result<Graph> mapped = DiscretizeWeights(*gd, spec);
    ASSERT_TRUE(mapped.ok());
    const Graph gd_plus = mapped->PositivePart();
    Result<DcsgaResult> solved =
        RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus));
    ASSERT_TRUE(solved.ok());
    reference = std::move(*solved);
  }

  Result<Graph> gd = GraphKernels::BuildDifferenceGraph(data->g1, data->g2);
  ASSERT_TRUE(gd.ok());
  Result<Graph> mapped = GraphKernels::DiscretizeWeights(*gd, spec);
  ASSERT_TRUE(mapped.ok());
  const Graph gd_plus = GraphKernels::PositivePart(*mapped);
  Result<DcsgaResult> kernel =
      RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus));
  ASSERT_TRUE(kernel.ok());
  EXPECT_TRUE(SameBits(kernel->affinity, reference.affinity));
  EXPECT_EQ(kernel->support, reference.support);
  EXPECT_EQ(kernel->x.x, reference.x.x);
}

TEST(KernelSolverTest, FastMathIsThreadCountInvariantAndNearExact) {
  const Graph gd_plus = SolverFixtureGdPlus(43);
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  DcsgaOptions exact_options;
  Result<DcsgaResult> exact = RunNewSea(gd_plus, bounds, exact_options);
  ASSERT_TRUE(exact.ok());

  DcsgaOptions fast_sequential;
  fast_sequential.fast_math = true;
  Result<DcsgaResult> fast_ref = RunNewSea(gd_plus, bounds, fast_sequential);
  ASSERT_TRUE(fast_ref.ok());
  // Reassociation may perturb the affinity by ulps, never the subgraph on a
  // fixture with a clear optimum.
  EXPECT_EQ(fast_ref->support, exact->support);
  EXPECT_NEAR(fast_ref->affinity, exact->affinity,
              1e-9 * (1.0 + std::fabs(exact->affinity)));

  for (const uint32_t threads : {2u, 4u, 7u}) {
    DcsgaOptions options;
    options.fast_math = true;
    options.parallelism = threads;
    Result<DcsgaResult> run = RunNewSea(gd_plus, bounds, options);
    ASSERT_TRUE(run.ok());
    // fast_math is per-seed arithmetic, so sharding still cannot change it:
    // bit-identical to the sequential fast_math run at every thread count.
    EXPECT_EQ(run->affinity, fast_ref->affinity) << threads << " threads";
    EXPECT_EQ(run->support, fast_ref->support) << threads << " threads";
    EXPECT_EQ(run->x.x, fast_ref->x.x) << threads << " threads";
  }
}

}  // namespace
}  // namespace dcs
