// Envelope-bounded dense LU: Lu::solve, solve_multi and determinant must
// be bitwise equal to a naive reference that factors and substitutes over
// the full n^2 triangle (the loops the envelope bounds replace), on
// seeded banded, tree-MNA, dense and singular matrices, real and complex.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "la/lu.h"

namespace awesim::la {
namespace {

// --- The reference: partial pivoting over full rows, full-loop solves.

template <typename T>
struct NaiveLu {
  Matrix<T> lu;
  std::vector<std::size_t> perm;
  int sign = 1;

  explicit NaiveLu(Matrix<T> a) : lu(std::move(a)), perm(lu.rows()) {
    const std::size_t n = lu.rows();
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t p = k;
      double mag = std::abs(lu(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        if (std::abs(lu(i, k)) > mag) {
          mag = std::abs(lu(i, k));
          p = i;
        }
      }
      if (mag <= 1e-300) throw SingularMatrixError(k);
      if (p != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(p, j));
        std::swap(perm[k], perm[p]);
        sign = -sign;
      }
      for (std::size_t i = k + 1; i < n; ++i) {
        const T mult = lu(i, k) / lu(k, k);
        lu(i, k) = mult;
        if (mult == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= mult * lu(k, j);
      }
    }
  }

  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = lu.rows();
    std::vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
    for (std::size_t i = 1; i < n; ++i) {
      T acc = x[i];
      for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
      x[i] = acc;
    }
    for (std::size_t i = n; i-- > 0;) {
      T acc = x[i];
      for (std::size_t j = i + 1; j < n; ++j) acc -= lu(i, j) * x[j];
      x[i] = acc / lu(i, i);
    }
    return x;
  }

  T determinant() const {
    T det = static_cast<T>(sign);
    for (std::size_t i = 0; i < lu.rows(); ++i) det *= lu(i, i);
    return det;
  }
};

// --- Bitwise comparison (std::complex<double> is two doubles).

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
void expect_same_bits(const std::vector<T>& got, const std::vector<T>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i], want[i])) << what << " entry " << i;
  }
}

// --- Seeded values: never an exact zero, so every zero in a matrix is a
// structural one.

template <typename T>
T draw(std::mt19937& rng);

template <>
double draw<double>(std::mt19937& rng) {
  std::uniform_real_distribution<double> mag(0.1, 2.0);
  std::bernoulli_distribution neg(0.5);
  const double v = mag(rng);
  return neg(rng) ? -v : v;
}

template <>
Complex draw<Complex>(std::mt19937& rng) {
  const double re = draw<double>(rng);
  return {re, draw<double>(rng)};
}

template <typename T>
std::vector<T> draw_vector(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::vector<T> v(n);
  for (T& x : v) x = draw<T>(rng);
  return v;
}

// Banded, lower bandwidth 2 and upper 3, weak diagonal: pivoting moves
// rows and fill widens their envelopes.
template <typename T>
Matrix<T> banded(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  Matrix<T> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i >= 2 ? i - 2 : 0; j < std::min(n, i + 4); ++j) {
      a(i, j) = draw<T>(rng);
    }
  }
  return a;
}

// MNA of a random RC tree (G + s C at a seeded s for the complex case)
// driven at its root by a voltage source: the branch row and column come
// last and the branch diagonal is zero, which forces a pivot.  Node
// labels are shuffled, so the envelopes are irregular.
template <typename T>
Matrix<T> tree_mna(std::uint32_t seed, std::size_t nodes) {
  std::mt19937 rng(seed);
  std::vector<std::size_t> label(nodes);
  std::iota(label.begin(), label.end(), std::size_t{0});
  std::shuffle(label.begin(), label.end(), rng);
  std::uniform_real_distribution<double> g(0.01, 1.0);
  std::uniform_real_distribution<double> c(0.1, 1.0);
  T s{};
  if constexpr (std::is_same_v<T, Complex>) s = Complex(0.0, 0.7);
  Matrix<T> a(nodes + 1, nodes + 1);
  auto stamp = [&](std::size_t p, std::size_t q, T y) {
    a(p, p) += y;
    a(q, q) += y;
    a(p, q) -= y;
    a(q, p) -= y;
  };
  for (std::size_t k = 1; k < nodes; ++k) {
    std::uniform_int_distribution<std::size_t> parent(k > 3 ? k - 3 : 0,
                                                      k - 1);
    stamp(label[k], label[parent(rng)], T(g(rng)));
  }
  for (std::size_t k = 0; k < nodes; ++k) a(k, k) += s * c(rng);
  const std::size_t root = label[0];
  a(root, nodes) = T(1.0);
  a(nodes, root) = T(1.0);
  return a;
}

template <typename T>
Matrix<T> dense(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  Matrix<T> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = draw<T>(rng);
  }
  return a;
}

template <typename T>
void check_against_reference(const Matrix<T>& a, std::uint32_t seed,
                             const std::string& what) {
  const NaiveLu<T> ref(a);
  const Lu<T> lu(a);
  EXPECT_TRUE(same_bits(lu.determinant(), ref.determinant()))
      << what << " determinant";
  std::vector<std::vector<T>> bs;
  for (std::uint32_t r = 0; r < 5; ++r) {
    bs.push_back(draw_vector<T>(seed * 31 + r, a.rows()));
    expect_same_bits(lu.solve(bs.back()), ref.solve(bs.back()),
                     what + " solve rhs " + std::to_string(r));
  }
  const std::vector<std::vector<T>> multi = lu.solve_multi(bs);
  ASSERT_EQ(multi.size(), bs.size());
  for (std::size_t r = 0; r < bs.size(); ++r) {
    expect_same_bits(multi[r], ref.solve(bs[r]),
                     what + " solve_multi rhs " + std::to_string(r));
  }
}

template <typename T>
void check_all_shapes() {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    check_against_reference(banded<T>(seed, 60), seed, "banded");
    check_against_reference(tree_mna<T>(seed, 103), seed, "tree MNA");
    check_against_reference(dense<T>(seed, 24), seed, "dense");
  }
}

}  // namespace

TEST(LuEnvelope, RealMatchesFullLoopReferenceBitwise) {
  check_all_shapes<double>();
}

TEST(LuEnvelope, ComplexMatchesFullLoopReferenceBitwise) {
  check_all_shapes<Complex>();
}

TEST(LuEnvelope, TreeMnaPivotsOnTheBranchRow) {
  // The zero branch diagonal cannot be a pivot: the factorization must
  // swap rows, so the envelopes really do move with their rows.
  const Matrix<double> a = tree_mna<double>(7, 40);
  EXPECT_EQ(a(40, 40), 0.0);
  const NaiveLu<double> ref(a);
  EXPECT_FALSE(std::is_sorted(ref.perm.begin(), ref.perm.end()));
  check_against_reference(a, 7, "tree MNA, pivoting");
}

TEST(LuEnvelope, SingularThrowsAtTheSamePivot) {
  // A zero column: elimination reaches it with nothing to pivot on.
  Matrix<double> zero_col = banded<double>(11, 30);
  for (std::size_t i = 0; i < 30; ++i) zero_col(i, 17) = 0.0;
  // A floating node: its row and column empty.
  Matrix<Complex> zero_row = tree_mna<Complex>(12, 25);
  for (std::size_t j = 0; j < 26; ++j) {
    zero_row(9, j) = Complex{};
    zero_row(j, 9) = Complex{};
  }
  const auto pivot_of = [](auto make) -> std::size_t {
    try {
      make();
    } catch (const SingularMatrixError& e) {
      return e.pivot_index();
    }
    return static_cast<std::size_t>(-1);
  };
  const std::size_t want_real =
      pivot_of([&] { NaiveLu<double> ref(zero_col); });
  const std::size_t want_complex =
      pivot_of([&] { NaiveLu<Complex> ref(zero_row); });
  ASSERT_NE(want_real, static_cast<std::size_t>(-1));
  ASSERT_NE(want_complex, static_cast<std::size_t>(-1));
  EXPECT_EQ(pivot_of([&] { Lu<double> lu(zero_col); }), want_real);
  EXPECT_EQ(pivot_of([&] { Lu<Complex> lu(zero_row); }), want_complex);
}

}  // namespace awesim::la
