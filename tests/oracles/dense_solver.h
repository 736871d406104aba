// Small dense linear algebra used by the exact DCSGA oracle.
//
// The optimal affinity embedding supported on a clique K satisfies
// (A x)_u = const for all u in K together with 1ᵀx = 1 (the KKT system of
// max xᵀAx on the simplex restricted to K). The brute-force oracle in
// tests/oracles/exact.cc enumerates candidate cliques and solves this system
// with partial-pivot Gaussian elimination; matrices involved are tiny
// (≤ ~16x16), so simplicity beats numerics sophistication here.

#ifndef DCS_TESTS_ORACLES_DENSE_SOLVER_H_
#define DCS_TESTS_ORACLES_DENSE_SOLVER_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace dcs {

/// \brief Row-major dense square matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix(size_t n, double fill = 0.0) : n_(n), data_(n * n, fill) {}

  size_t n() const { return n_; }
  double& At(size_t i, size_t j) { return data_[i * n_ + j]; }
  double At(size_t i, size_t j) const { return data_[i * n_ + j]; }

 private:
  size_t n_;
  std::vector<double> data_;
};

/// \brief Solves A x = b by Gaussian elimination with partial pivoting.
///
/// Returns InvalidArgument on dimension mismatch and NotConverged when the
/// matrix is (numerically) singular.
Result<std::vector<double>> SolveLinearSystem(DenseMatrix a,
                                              std::vector<double> b);

/// \brief Maximizes xᵀAx over the simplex restricted to the full support
/// {0,...,n-1}, assuming the maximizer is interior (all x_i > 0).
///
/// Solves A y = 1 and normalizes. Returns NotConverged if the KKT system is
/// singular, and NotFound if the normalized solution leaves the simplex
/// (some coordinate non-positive), meaning the interior assumption fails.
Result<std::vector<double>> InteriorSimplexMaximizer(const DenseMatrix& a);

}  // namespace dcs

#endif  // DCS_TESTS_ORACLES_DENSE_SOLVER_H_
