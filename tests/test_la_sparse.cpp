// Sparse matrix and sparse LU: construction, products, orderings, and
// factorization correctness against the dense solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>

#include "la/lu.h"
#include "la/sparse.h"

namespace la = awesim::la;

namespace {

// Random sparse diagonally-dominant-ish matrix as triplets.
std::vector<la::Triplet> random_triplets(std::size_t n, unsigned seed,
                                         double density = 0.15) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        t.push_back({i, j, 3.0 + val(rng)});
      } else if (coin(rng) < density) {
        t.push_back({i, j, val(rng)});
      }
    }
  }
  return t;
}

// Tridiagonal "RC line" pattern, the shape AWE actually sees.
std::vector<la::Triplet> line_triplets(std::size_t n) {
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  return t;
}

}  // namespace

TEST(SparseMatrix, FromTripletsSumsDuplicates) {
  const auto m = la::SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 0, 5.0}, {0, 1, -1.0}});
  EXPECT_EQ(m.nnz(), 3u);
  const auto d = m.to_dense();
  EXPECT_EQ(d(0, 0), 3.0);
  EXPECT_EQ(d(1, 0), 5.0);
  EXPECT_EQ(d(0, 1), -1.0);
  EXPECT_EQ(d(1, 1), 0.0);
}

// Appending signed-zero triplets (C scaled by a zero shift) never
// changes a densified matrix, signed zeros included: the zeros leave
// every nonzero partial sum of a duplicate run as it was, and to_dense
// adds each compressed entry to +0.  MnaSystem relies on this to factor
// G by densifying its stamped G instead of re-assembling G + 0*C.
TEST(SparseMatrix, AppendedSignedZerosDensifyToTheSameBits) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::size_t> at(0, 5);
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 6;
    std::vector<la::Triplet> g;
    std::vector<la::Triplet> c;
    for (int k = 0; k < 30; ++k) {
      const std::size_t i = at(rng);
      const std::size_t j = at(rng);
      const double x = val(rng);
      switch (kind(rng)) {
        case 0: g.push_back({i, j, 0.0}); break;
        case 1: g.push_back({i, j, -0.0}); break;
        case 2:  // a cancelling pair sums to +0
          g.push_back({i, j, x});
          g.push_back({i, j, -x});
          break;
        default: g.push_back({i, j, x}); break;
      }
      c.push_back({at(rng), at(rng), val(rng)});
    }
    for (const double shift : {0.0, -0.0}) {
      std::vector<la::Triplet> sum = g;
      for (const auto& t : c) sum.push_back({t.row, t.col, shift * t.value});
      const la::RealMatrix want =
          la::SparseMatrix::from_triplets(n, n, sum).to_dense();
      const la::RealMatrix got =
          la::SparseMatrix::from_triplets(n, n, g).to_dense();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(bits(got(i, j)), bits(want(i, j)))
              << "trial " << trial << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(SparseMatrix, RejectsOutOfRange) {
  EXPECT_THROW(la::SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
}

TEST(SparseMatrix, ApplyMatchesDense) {
  const auto t = random_triplets(17, 5);
  const auto m = la::SparseMatrix::from_triplets(17, 17, t);
  const auto d = m.to_dense();
  la::RealVector x(17);
  for (std::size_t i = 0; i < 17; ++i) x[i] = std::sin(1.0 + i);
  const auto y1 = m.apply(x);
  const auto y2 = d * x;
  for (std::size_t i = 0; i < 17; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
  const auto z1 = m.apply_transposed(x);
  const auto z2 = d.transpose() * x;
  for (std::size_t i = 0; i < 17; ++i) EXPECT_NEAR(z1[i], z2[i], 1e-12);
}

TEST(SparseLu, SolvesRandomSystems) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    const std::size_t n = 11 + 9 * seed;
    const auto t = random_triplets(n, seed);
    const auto m = la::SparseMatrix::from_triplets(n, n, t);
    la::RealVector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(0.3 * i) - 0.2;
    const auto x_sparse = la::SparseLu(m).solve(b);
    const auto x_dense = la::solve(m.to_dense(), b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-9) << "seed " << seed;
    }
  }
}

TEST(SparseLu, NaturalOrderingAlsoCorrect) {
  const auto t = random_triplets(40, 3);
  const auto m = la::SparseMatrix::from_triplets(40, 40, t);
  la::RealVector b(40, 1.0);
  const auto x1 = la::SparseLu(m, la::Ordering::Natural).solve(b);
  const auto x2 = la::solve(m.to_dense(), b);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
  // MNA voltage-source pattern: zero diagonal block, solvable only with
  // row pivoting.
  const auto m = la::SparseMatrix::from_triplets(
      3, 3,
      {{0, 0, 1.0}, {0, 2, 1.0}, {2, 0, 1.0}, {1, 1, 2.0}, {1, 2, -1.0},
       {2, 1, 0.0}});
  la::RealVector b{1.0, 2.0, 3.0};
  const auto x = la::SparseLu(m).solve(b);
  const auto y = m.apply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], b[i], 1e-10);
}

TEST(SparseLu, ThrowsOnSingular) {
  const auto m = la::SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});  // second row empty
  EXPECT_THROW(la::SparseLu{m}, la::SingularMatrixError);
}

TEST(SparseLu, LineSystemLowFill) {
  // A tridiagonal system must factor with O(n) fill.
  const std::size_t n = 400;
  const auto m = la::SparseMatrix::from_triplets(n, n, line_triplets(n));
  la::SparseLu lu(m);
  EXPECT_LT(lu.factor_nnz(), 6 * n);
  la::RealVector b(n, 1.0);
  const auto x = lu.solve(b);
  const auto y = m.apply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], 1.0, 1e-9);
}

TEST(SparseLu, RcmReducesFillOnShuffledLine) {
  // Shuffle a line graph's labels: natural-order factorization fills in;
  // RCM recovers the banded structure.
  const std::size_t n = 200;
  std::mt19937 rng(11);
  std::vector<std::size_t> relabel(n);
  std::iota(relabel.begin(), relabel.end(), std::size_t{0});
  std::shuffle(relabel.begin(), relabel.end(), rng);
  std::vector<la::Triplet> t;
  for (const auto& trip : line_triplets(n)) {
    t.push_back({relabel[trip.row], relabel[trip.col], trip.value});
  }
  const auto m = la::SparseMatrix::from_triplets(n, n, t);
  la::SparseLu natural(m, la::Ordering::Natural);
  la::SparseLu rcm(m, la::Ordering::ReverseCuthillMcKee);
  EXPECT_LT(rcm.factor_nnz(), natural.factor_nnz());
  EXPECT_LT(rcm.factor_nnz(), 8 * n);
  // Both still correct.
  la::RealVector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 0.1 * i;
  const auto x1 = natural.solve(b);
  const auto x2 = rcm.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

TEST(SparseLu, RejectsNonSquare) {
  const auto m = la::SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(la::SparseLu{m}, std::invalid_argument);
}

TEST(SparseLu, RhsSizeMismatch) {
  const auto m =
      la::SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  la::SparseLu lu(m);
  EXPECT_THROW(lu.solve({1.0}), std::invalid_argument);
}

TEST(Rcm, OrdersPathGraphContiguously) {
  // On a path graph, RCM must produce a traversal where consecutive
  // positions are graph-adjacent (bandwidth 1).
  const std::size_t n = 50;
  const auto m = la::SparseMatrix::from_triplets(n, n, line_triplets(n));
  const auto q = la::reverse_cuthill_mckee(m);
  ASSERT_EQ(q.size(), n);
  for (std::size_t k = 1; k < n; ++k) {
    const auto diff = q[k] > q[k - 1] ? q[k] - q[k - 1] : q[k - 1] - q[k];
    EXPECT_EQ(diff, 1u) << "position " << k;
  }
}
