#include "oracles/dense_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace dcs {
namespace {

TEST(SolveLinearSystemTest, Identity) {
  DenseMatrix a(3);
  for (size_t i = 0; i < 3; ++i) a.At(i, i) = 1.0;
  auto x = SolveLinearSystem(a, {1.0, 2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ((*x)[0], 1.0);
  EXPECT_DOUBLE_EQ((*x)[1], 2.0);
  EXPECT_DOUBLE_EQ((*x)[2], 3.0);
}

TEST(SolveLinearSystemTest, TwoByTwo) {
  DenseMatrix a(2);
  a.At(0, 0) = 2.0; a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0; a.At(1, 1) = 3.0;
  auto x = SolveLinearSystem(a, {5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(SolveLinearSystemTest, RequiresPivoting) {
  // Leading zero forces a row swap.
  DenseMatrix a(2);
  a.At(0, 0) = 0.0; a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0; a.At(1, 1) = 0.0;
  auto x = SolveLinearSystem(a, {3.0, 4.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 4.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(SolveLinearSystemTest, SingularIsRejected) {
  DenseMatrix a(2);
  a.At(0, 0) = 1.0; a.At(0, 1) = 2.0;
  a.At(1, 0) = 2.0; a.At(1, 1) = 4.0;
  auto x = SolveLinearSystem(a, {1.0, 2.0});
  EXPECT_FALSE(x.ok());
  EXPECT_TRUE(x.status().IsNotConverged());
}

TEST(SolveLinearSystemTest, DimensionMismatch) {
  DenseMatrix a(2);
  auto x = SolveLinearSystem(a, {1.0});
  EXPECT_FALSE(x.ok());
  EXPECT_TRUE(x.status().IsInvalidArgument());
}

class RandomSystemTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSystemTest, ResidualIsTiny) {
  Rng rng(GetParam());
  const size_t n = 2 + rng.NextBounded(10);
  DenseMatrix a(n);
  std::vector<std::vector<double>> a_copy(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a.At(i, j) = rng.Uniform(-5.0, 5.0);
      a_copy[i][j] = a.At(i, j);
    }
    a.At(i, i) += 10.0;  // diagonally dominant => well conditioned
    a_copy[i][i] = a.At(i, i);
  }
  std::vector<double> b(n);
  for (double& v : b) v = rng.Uniform(-10.0, 10.0);
  auto x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < n; ++j) acc += a_copy[i][j] * (*x)[j];
    EXPECT_NEAR(acc, b[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(InteriorSimplexMaximizerTest, UnweightedCliqueIsUniform) {
  // A = J − I on k vertices: optimum x = 1/k each, f = (k−1)/k
  // (Motzkin–Straus).
  for (size_t k : {2u, 3u, 5u, 8u}) {
    DenseMatrix a(k);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) a.At(i, j) = i == j ? 0.0 : 1.0;
    }
    auto x = InteriorSimplexMaximizer(a);
    ASSERT_TRUE(x.ok()) << "k=" << k;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR((*x)[i], 1.0 / static_cast<double>(k), 1e-12);
    }
  }
}

TEST(InteriorSimplexMaximizerTest, SingletonIsTrivial) {
  DenseMatrix a(1);
  auto x = InteriorSimplexMaximizer(a);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ((*x)[0], 1.0);
}

TEST(InteriorSimplexMaximizerTest, WeightedTriangleKktProperty) {
  // Weighted triangle: at the interior KKT point all (Ax)_i are equal.
  DenseMatrix a(3);
  a.At(0, 1) = a.At(1, 0) = 2.0;
  a.At(0, 2) = a.At(2, 0) = 3.0;
  a.At(1, 2) = a.At(2, 1) = 4.0;
  auto x = InteriorSimplexMaximizer(a);
  ASSERT_TRUE(x.ok());
  std::vector<double> ax(3, 0.0);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) ax[i] += a.At(i, j) * (*x)[j];
  }
  EXPECT_NEAR(ax[0], ax[1], 1e-10);
  EXPECT_NEAR(ax[1], ax[2], 1e-10);
  double sum = (*x)[0] + (*x)[1] + (*x)[2];
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(InteriorSimplexMaximizerTest, NonInteriorCaseIsReported) {
  // Strong (0,1) edge and weak edges to vertex 2: the maximizer drops
  // vertex 2, so the interior solve must report NotFound (or a negative
  // coordinate) rather than a bogus simplex point.
  DenseMatrix a(3);
  a.At(0, 1) = a.At(1, 0) = 10.0;
  a.At(0, 2) = a.At(2, 0) = 0.1;
  a.At(1, 2) = a.At(2, 1) = 0.1;
  auto x = InteriorSimplexMaximizer(a);
  EXPECT_FALSE(x.ok());
}

TEST(InteriorSimplexMaximizerTest, EmptyMatrixRejected) {
  DenseMatrix a(0);
  EXPECT_FALSE(InteriorSimplexMaximizer(a).ok());
}

}  // namespace
}  // namespace dcs
