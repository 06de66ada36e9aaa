#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/sparse.hpp"
#include "linalg/stationary.hpp"
#include "support/dense.hpp"
#include "support/stationary_reference.hpp"

namespace streamflow {
namespace {

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector y = a.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vector z = a.multiply_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
  const DenseMatrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Lu, SolvesKnownSystem) {
  DenseMatrix a(3, 3);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(0, 2) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(1, 2) = 2;
  a(2, 0) = 1;
  a(2, 1) = 0;
  a(2, 2) = 0;
  // x = (1, 2, 3): b = (2+2+3, 1+6+6, 1) = (7, 13, 1).
  const Vector x = solve_dense(a, {7.0, 13.0, 1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  Prng prng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + prng.uniform_index(30);
    DenseMatrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = prng.uniform(-2.0, 2.0);
    // Diagonal dominance guarantees non-singularity.
    for (std::size_t r = 0; r < n; ++r) a(r, r) += 4.0 * static_cast<double>(n);
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = prng.uniform(-1.0, 1.0);
    const Vector b = a.multiply(x_true);
    const Vector x = solve_dense(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, DetectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, NumericalError);
}

TEST(Lu, Determinant) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_NEAR(LuFactorization{a}.determinant(), 10.0, 1e-12);
}

TEST(Csr, AssemblesAndMultiplies) {
  std::vector<Triplet> t{{0, 1, 2.0}, {1, 0, 3.0}, {1, 2, 1.0}, {0, 1, 0.5}};
  CsrMatrix m(2, 3, t);
  EXPECT_EQ(m.nonzeros(), 3u);  // duplicate (0,1) merged
  const auto y = m.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  const auto z = m.multiply_transpose({1.0, 2.0});
  EXPECT_DOUBLE_EQ(z[0], 6.0);
  EXPECT_DOUBLE_EQ(z[1], 2.5);
  EXPECT_DOUBLE_EQ(z[2], 2.0);
}

TEST(Csr, SortsColumnsAndMergesDuplicatesWithinRows) {
  // Columns arrive in reverse order, rows interleaved, duplicates apart.
  std::vector<Triplet> t{{1, 3, 2.0}};
  for (std::size_t c = 40; c-- > 0;) t.push_back({0, c, 1.0});
  t.push_back({1, 1, 1.0});
  for (std::size_t c = 0; c < 40; c += 2) t.push_back({0, c, 0.5});
  t.push_back({1, 3, 0.25});
  const CsrMatrix m(2, 40, t);
  EXPECT_EQ(m.nonzeros(), 42u);
  for (std::size_t k = m.row_begin(0); k < m.row_end(0); ++k) {
    EXPECT_EQ(m.col_index()[k], k);
    EXPECT_EQ(m.values()[k], k % 2 == 0 ? 1.5 : 1.0);
  }
  EXPECT_EQ(m.col_index()[m.row_begin(1)], 1u);
  EXPECT_EQ(m.values()[m.row_begin(1) + 1], 2.25);
}

TEST(Csr, RejectsOutOfRange) {
  std::vector<Triplet> t{{5, 0, 1.0}};
  EXPECT_THROW(CsrMatrix(2, 2, t), InvalidArgument);
}

TEST(Stationary, TwoStateChain) {
  // 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a) / (a + b).
  const double a = 2.0, b = 5.0;
  DenseMatrix q(2, 2);
  q(0, 0) = -a;
  q(0, 1) = a;
  q(1, 0) = b;
  q(1, 1) = -b;
  const Vector pi =
      stationary_gauss_seidel(CsrMatrix(2, 2, {{0, 1, a}, {1, 0, b}}));
  EXPECT_NEAR(pi[0], b / (a + b), 1e-12);
  EXPECT_NEAR(pi[1], a / (a + b), 1e-12);
  EXPECT_LT(stationary_residual(q, pi), 1e-12);
}

TEST(Stationary, BirthDeathMatchesMm1k) {
  // M/M/1/K with arrival l, service mu: pi_i ~ (l/mu)^i.
  const double l = 1.0, mu = 2.0;
  const std::size_t k = 6;
  std::vector<Triplet> q;
  for (std::size_t i = 0; i <= k; ++i) {
    if (i < k) q.push_back({i, i + 1, l});
    if (i > 0) q.push_back({i, i - 1, mu});
  }
  const Vector pi = stationary_gauss_seidel(CsrMatrix(k + 1, k + 1, q));
  const double rho = l / mu;
  double norm = 0.0;
  for (std::size_t i = 0; i <= k; ++i) norm += std::pow(rho, i);
  for (std::size_t i = 0; i <= k; ++i)
    EXPECT_NEAR(pi[i], std::pow(rho, i) / norm, 1e-12) << "state " << i;
}

/// A random strongly connected generator of `n` states (a cycle plus random
/// extra edges), as off-diagonal triplets and as the dense Q.
struct RandomGenerator {
  std::vector<Triplet> triplets;
  DenseMatrix q;

  RandomGenerator(std::size_t n, Prng& prng) : q(n, n, 0.0) {
    auto add = [&](std::size_t i, std::size_t j, double r) {
      triplets.push_back({i, j, r});
      q(i, j) += r;
      q(i, i) -= r;
    };
    for (std::size_t i = 0; i < n; ++i)
      add(i, (i + 1) % n, prng.uniform(0.5, 2.0));
    for (std::size_t e = 0; e < 2 * n; ++e) {
      const std::size_t i = prng.uniform_index(n);
      const std::size_t j = prng.uniform_index(n);
      if (i != j) add(i, j, prng.uniform(0.1, 1.0));
    }
  }
};

TEST(Stationary, GaussSeidelAgreesWithDense) {
  Prng prng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + prng.uniform_index(20);
    const RandomGenerator gen(n, prng);
    const Vector pi_dense = stationary_dense(gen.q);
    const Vector pi_iter =
        stationary_gauss_seidel(CsrMatrix(n, n, gen.triplets));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(pi_dense[i], pi_iter[i], 1e-10) << "state " << i;
  }
}

TEST(Stationary, GaussSeidelReportsItsTrueResidual) {
  // The reported residual is stationary_residual of the returned vector,
  // recomputed independently here from the dense generator.
  Prng prng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + prng.uniform_index(40);
    const RandomGenerator gen(n, prng);
    StationaryOptions options;
    StationarySolveStats stats;
    const Vector pi =
        stationary_gauss_seidel(CsrMatrix(n, n, gen.triplets), options, &stats);
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_LE(stats.residual, options.tolerance);
    EXPECT_NEAR(stats.residual, stationary_residual(gen.q, pi), 1e-15);
    double sum = 0.0;
    for (double p : pi) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-14);
  }
}

TEST(Stationary, GaussSeidelFailsClosedOnNonConvergence) {
  // A sweep cap too small for the tolerance is an error, never a guess.
  Prng prng(5);
  const RandomGenerator gen(30, prng);
  StationaryOptions options;
  options.max_iterations = 1;
  EXPECT_THROW(
      stationary_gauss_seidel(CsrMatrix(30, 30, gen.triplets), options),
      NumericalError);
}

TEST(Stationary, GaussSeidelRejectsStateWithoutExit) {
  // 0 -> 1 only: state 1 is absorbing, so the chain is not irreducible.
  EXPECT_THROW(stationary_gauss_seidel(CsrMatrix(2, 2, {{0, 1, 1.0}})),
               NumericalError);
}

TEST(Stationary, GaussSeidelSingleStateAndDiagonalEntries) {
  StationarySolveStats stats;
  EXPECT_EQ(stationary_gauss_seidel(CsrMatrix(1, 1, {}), {}, &stats),
            Vector{1.0});
  EXPECT_EQ(stats.iterations, 0u);
  // Diagonal entries in the off-diagonal input are ignored, bit for bit.
  Prng prng(9);
  const RandomGenerator gen(12, prng);
  std::vector<Triplet> with_diagonal = gen.triplets;
  for (std::size_t i = 0; i < 12; ++i) with_diagonal.push_back({i, i, 3.0});
  EXPECT_EQ(stationary_gauss_seidel(CsrMatrix(12, 12, gen.triplets)),
            stationary_gauss_seidel(CsrMatrix(12, 12, with_diagonal)));
}

TEST(Stationary, RejectsEmptyAndNonSquare) {
  EXPECT_THROW(stationary_gauss_seidel(CsrMatrix(0, 0, {})), InvalidArgument);
  EXPECT_THROW(stationary_gauss_seidel(CsrMatrix(2, 3, {})), InvalidArgument);
  EXPECT_THROW(stationary_dense(DenseMatrix(0, 0)), InvalidArgument);
  EXPECT_THROW(stationary_dense(DenseMatrix(2, 3)), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
