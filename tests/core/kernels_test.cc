// Golden scalar-vs-vectorized bit-identity suite for the kernel layer
// (core/kernels.h). Every default kernel must produce the same bits under
// forced-scalar and forced-AVX2 dispatch — on the elementwise kernels,
// end-to-end through RunNewSea at thread counts {1,2,4,7}, and through a
// whole Discrete-setting mine (difference, discretize, GD+, solve) on a
// planted pair against the naive builder-based pipeline. AVX2 halves skip
// on hardware without AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/kernels.h"
#include "core/newsea.h"
#include "gen/coauthor.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "oracles/naive_pipeline.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::NaiveDifferenceGraph;
using ::dcs::testing::NaiveDiscretizeWeights;
using ::dcs::testing::NaivePositivePart;

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
    double scalar_f, avx2_f;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      scalar_f = SupportReduce(support.data(), count, x.data(), dx.data());
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      avx2_f = SupportReduce(support.data(), count, x.data(), dx.data());
    }
    EXPECT_TRUE(SameBits(ordered, scalar_f)) << count;
    EXPECT_TRUE(SameBits(ordered, avx2_f)) << count;
  }
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
// pair: the naive builder-based pipeline (tests/oracles/naive_pipeline.h)
// with a forced-scalar solve, then the graph/ bodies with automatic
// dispatch. The answers must match bit for bit.
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
    Result<Graph> gd = NaiveDifferenceGraph(data->g1, data->g2);
    ASSERT_TRUE(gd.ok());
    Result<Graph> mapped = NaiveDiscretizeWeights(*gd, spec);
    ASSERT_TRUE(mapped.ok());
    const Graph gd_plus = NaivePositivePart(*mapped);
    Result<DcsgaResult> solved =
        RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus));
    ASSERT_TRUE(solved.ok());
    reference = std::move(*solved);
  }

  Result<Graph> gd = BuildDifferenceGraph(data->g1, data->g2);
  ASSERT_TRUE(gd.ok());
  Result<Graph> mapped = DiscretizeWeights(*gd, spec);
  ASSERT_TRUE(mapped.ok());
  const Graph gd_plus = mapped->PositivePart();
  Result<DcsgaResult> kernel =
      RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus));
  ASSERT_TRUE(kernel.ok());
  EXPECT_TRUE(SameBits(kernel->affinity, reference.affinity));
  EXPECT_EQ(kernel->support, reference.support);
  EXPECT_EQ(kernel->x.x, reference.x.x);
}

}  // namespace
}  // namespace dcs
