#include "la/lu.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/fault.h"

namespace awesim::la {

namespace {

// A pivot smaller than this times the largest element of its column is
// treated as numerically zero.
constexpr double kPivotTolerance = 1e-300;

}  // namespace

template <typename T>
Lu<T>::Lu(Matrix<T> a) : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols()) {
    throw std::invalid_argument("Lu: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  if (core::fault_at("la.lu", std::to_string(n))) {
    throw SingularMatrixError(0);
  }
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  // Row envelopes of the input: first nonzero column and one past the
  // last.  An empty row gets lo = n, hi = 0.
  lo_.assign(n, n);
  hi_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const T* row = lu_.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] != T{}) {
        lo_[i] = std::min(lo_[i], j);
        hi_[i] = j + 1;
      }
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below
    // k.  A row whose envelope starts right of k holds an exact zero
    // there and can never win.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (lo_[i] > k) continue;
      const double mag = std::abs(lu_(i, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag <= kPivotTolerance) {
      throw SingularMatrixError(k);
    }
    if (pivot_row != k) {
      // Outside the union of the two envelopes both rows hold zeros.
      const std::size_t from = std::min(lo_[k], lo_[pivot_row]);
      const std::size_t to = std::max(hi_[k], hi_[pivot_row]);
      std::swap_ranges(lu_.row(k) + from, lu_.row(k) + to,
                       lu_.row(pivot_row) + from);
      std::swap(lo_[k], lo_[pivot_row]);
      std::swap(hi_[k], hi_[pivot_row]);
      std::swap(perm_[k], perm_[pivot_row]);
      perm_sign_ = -perm_sign_;
    }
    const T* const pivot_row_data = lu_.row(k);
    const T pivot = pivot_row_data[k];
    const std::size_t hi_k = hi_[k];
    for (std::size_t i = k + 1; i < n; ++i) {
      if (lo_[i] > k) continue;  // multiplier is an exact zero
      T* const row = lu_.row(i);
      const T mult = row[k] / pivot;
      row[k] = mult;
      if (mult == T{}) continue;
      // Fill: row i now reaches as far right as the pivot row.
      hi_[i] = std::max(hi_[i], hi_k);
      for (std::size_t j = k + 1; j < hi_k; ++j) {
        row[j] -= mult * pivot_row_data[j];
      }
    }
  }
}

template <typename T>
std::vector<T> Lu<T>::solve(const std::vector<T>& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("Lu::solve: rhs size mismatch");
  }
  // Apply permutation, then forward substitution with unit-lower L over
  // each row's envelope [lo_i, i).
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    const T* const row = lu_.row(i);
    T acc = x[i];
    for (std::size_t j = lo_[i]; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution with U over (i, hi_i).
  for (std::size_t ii = n; ii-- > 0;) {
    const T* const row = lu_.row(ii);
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < hi_[ii]; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
  return x;
}

template <typename T>
std::vector<std::vector<T>> Lu<T>::solve_multi(
    const std::vector<std::vector<T>>& bs) const {
  std::vector<std::vector<T>> xs;
  xs.reserve(bs.size());
  for (const std::vector<T>& b : bs) xs.push_back(solve(b));
  return xs;
}

template <typename T>
std::vector<T> Lu<T>::solve_transposed(const std::vector<T>& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("Lu::solve_transposed: rhs size mismatch");
  }
  // A^T = U^T L^T P, so solve U^T y = b, L^T z = y, then x = P^T z.
  std::vector<T> y(b);
  for (std::size_t i = 0; i < n; ++i) {
    T acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * y[j];
    y[i] = acc / lu_(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * y[j];
    y[ii] = acc;
  }
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = y[i];
  return x;
}

template <typename T>
T Lu<T>::determinant() const {
  T det = static_cast<T>(perm_sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

template <typename T>
double Lu<T>::pivot_growth() const {
  double lo = std::abs(lu_(0, 0));
  double hi = lo;
  for (std::size_t i = 1; i < size(); ++i) {
    const double p = std::abs(lu_(i, i));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
}

template <typename T>
double Lu<T>::condition_estimate(double a_norm_inf) const {
  const std::size_t n = size();
  if (n == 0) return 0.0;
  // Power iteration on A^{-T} A^{-1} to estimate ||A^{-1}||_inf-ish growth;
  // a handful of sweeps is enough for an order-of-magnitude answer, which
  // is all the moment-matrix diagnostics need.
  std::vector<T> v(n, T{1.0 / static_cast<double>(n)});
  double est = 0.0;
  for (int sweep = 0; sweep < 4; ++sweep) {
    std::vector<T> w = solve(v);
    est = norm_inf(w);
    const double nrm = norm2(w);
    if (nrm == 0.0) break;
    for (auto& x : w) x /= nrm;
    v = solve_transposed(w);
    const double nv = norm2(v);
    if (nv == 0.0) break;
    for (auto& x : v) x /= nv;
  }
  return est * a_norm_inf;
}

template <typename T>
Matrix<T> inverse(const Matrix<T>& a) {
  Lu<T> lu(a);
  const std::size_t n = a.rows();
  Matrix<T> inv(n, n);
  std::vector<T> e(n, T{});
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = T{1};
    const std::vector<T> col = lu.solve(e);
    e[j] = T{};
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  return inv;
}

template class Lu<double>;
template class Lu<Complex>;
template Matrix<double> inverse(const Matrix<double>&);
template Matrix<Complex> inverse(const Matrix<Complex>&);

}  // namespace awesim::la
