#include "support/maxplus_algebra.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "support/deterministic_reference.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

using maxplus::eps;
using maxplus::Matrix;

TEST(MaxPlusAlgebra, ScalarOps) {
  EXPECT_DOUBLE_EQ(maxplus::oplus(2.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(maxplus::otimes(2.0, 3.0), 5.0);
  EXPECT_EQ(maxplus::otimes(eps, 3.0), eps);
  EXPECT_EQ(maxplus::oplus(eps, eps), eps);
  EXPECT_DOUBLE_EQ(maxplus::otimes(maxplus::e, 4.0), 4.0);
}

TEST(MaxPlusAlgebra, MatrixMultiplyAndIdentity) {
  Matrix a(2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = eps;
  a(1, 1) = 3.0;
  const Matrix i2 = Matrix::identity(2);
  const Matrix ai = a.multiply(i2);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) EXPECT_EQ(ai(r, c), a(r, c));
  const Matrix a2 = a.multiply(a);
  // (A^2)(0,1) = max(a00+a01, a01+a11) = max(3, 5) = 5.
  EXPECT_DOUBLE_EQ(a2(0, 1), 5.0);
  EXPECT_EQ(a2(1, 0), eps);
}

TEST(MaxPlusAlgebra, ApplyVector) {
  Matrix a(2);
  a(0, 1) = 2.0;
  a(1, 0) = 1.0;
  const auto y = a.apply({5.0, 7.0});
  EXPECT_DOUBLE_EQ(y[0], 9.0);  // 2 + 7
  EXPECT_DOUBLE_EQ(y[1], 6.0);  // 1 + 5
}

TEST(MaxPlusAlgebra, StarOfAcyclicChain) {
  // 0 -> 1 -> 2 with weights 2 and 3: star holds all path maxima.
  Matrix a(3);
  a(1, 0) = 2.0;
  a(2, 1) = 3.0;
  const Matrix s = a.star();
  EXPECT_DOUBLE_EQ(s(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(2, 0), 5.0);
  EXPECT_EQ(s(0, 2), eps);
}

TEST(MaxPlusAlgebra, StarRejectsPositiveCycle) {
  Matrix a(2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  EXPECT_THROW(a.star(), InvalidArgument);
}

TEST(MaxPlusAlgebra, StateMatrixOfSelfLoopServer) {
  // One transition, duration 2, marked self-loop: x(k) = 2 + x(k-1).
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 2.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  g.finalize();
  const Matrix a = maxplus::state_matrix(g);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  const auto rates = maxplus::cycle_time_vector(a, 40);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
}

class CycleTimeVectorTest : public ::testing::TestWithParam<std::uint64_t> {};

// The (max,+) cycle-time vector must equal the SCC-condensation ancestor
// periods on random replicated mappings — two fully independent
// deterministic analyses.
TEST_P(CycleTimeVectorTest, MatchesTransitionPeriods) {
  Prng prng(GetParam());
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 7;
  options.max_paths = 12;
  const Mapping mapping = random_instance(options, prng);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const TimedEventGraph g = build_tpn(mapping, model);
    const Matrix a = maxplus::state_matrix(g);
    const auto maxplus_rates = maxplus::cycle_time_vector(a, 600);
    const auto scc_periods = transition_periods(g);
    ASSERT_EQ(maxplus_rates.size(), scc_periods.size());
    for (std::size_t t = 0; t < scc_periods.size(); ++t) {
      EXPECT_LT(relative_difference(maxplus_rates[t], scc_periods[t]), 1e-6)
          << mapping.to_string() << " " << to_string(model) << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, CycleTimeVectorTest,
                         ::testing::Range<std::uint64_t>(700, 708));

TEST(MaxPlusAlgebra, ThroughputFromCycleTimeVector) {
  // Third route to the deterministic throughput: sum the last column's
  // firing rates from the (max,+) growth rates.
  const Mapping mapping = testing::replicated_chain_mapping(1, 2, 1, 3.0, 1.0);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const Matrix a = maxplus::state_matrix(g);
  const auto rates = maxplus::cycle_time_vector(a, 600);
  double rho = 0.0;
  for (const std::size_t t : g.last_column_transitions()) rho += 1.0 / rates[t];
  const auto reference =
      deterministic_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_LT(relative_difference(rho, reference.throughput), 1e-9);
}

}  // namespace
}  // namespace streamflow
