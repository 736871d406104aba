#include "oracles/dense_solver.h"

#include <cmath>

namespace dcs {

Result<std::vector<double>> SolveLinearSystem(DenseMatrix a,
                                              std::vector<double> b) {
  const size_t n = a.n();
  if (b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: dimension mismatch");
  }
  constexpr double kPivotEps = 1e-12;
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a.At(row, col)) > std::fabs(a.At(pivot, col))) pivot = row;
    }
    if (std::fabs(a.At(pivot, col)) < kPivotEps) {
      return Status::NotConverged("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) std::swap(a.At(pivot, j), a.At(col, j));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a.At(col, col);
    for (size_t row = col + 1; row < n; ++row) {
      const double factor = a.At(row, col) * inv;
      if (factor == 0.0) continue;
      for (size_t j = col; j < n; ++j) {
        a.At(row, j) -= factor * a.At(col, j);
      }
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (size_t j = i + 1; j < n; ++j) acc -= a.At(i, j) * x[j];
    x[i] = acc / a.At(i, i);
  }
  return x;
}

Result<std::vector<double>> InteriorSimplexMaximizer(const DenseMatrix& a) {
  const size_t n = a.n();
  if (n == 0) return Status::InvalidArgument("empty matrix");
  if (n == 1) return std::vector<double>{1.0};
  DCS_ASSIGN_OR_RETURN(std::vector<double> y,
                       SolveLinearSystem(a, std::vector<double>(n, 1.0)));
  double total = 0.0;
  for (double v : y) total += v;
  if (std::fabs(total) < 1e-12) {
    return Status::NotConverged("InteriorSimplexMaximizer: degenerate sum");
  }
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = y[i] / total;
    if (!(x[i] > 0.0)) {
      return Status::NotFound("maximizer is not interior");
    }
  }
  return x;
}

}  // namespace dcs
