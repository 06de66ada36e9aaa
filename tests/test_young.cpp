#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/stats.hpp"
#include "linalg/stationary.hpp"
#include "markov/reachability.hpp"
#include "markov/throughput.hpp"
#include "test_helpers.hpp"
#include "tpn/columns.hpp"
#include "young/diagram.hpp"
#include "young/pattern_analysis.hpp"

namespace streamflow {
namespace {

using PatternDims = std::pair<std::size_t, std::size_t>;

class YoungStateSpaceTest : public ::testing::TestWithParam<PatternDims> {};

// Theorem 3's counting: the reachable markings of the folded u x v pattern
// are exactly S(u,v) = C(u+v-1, u-1) * v, triangulated four ways: closed
// form, the paper's double sum, literal path enumeration, and the actual
// reachability graph of the pattern TEG.
TEST_P(YoungStateSpaceTest, FourWayCountAgreement) {
  const auto [u, v] = GetParam();
  if (std::gcd(u, v) != 1) GTEST_SKIP() << "patterns require gcd(u,v)=1";
  const std::int64_t closed = young_state_count(
      static_cast<std::int64_t>(u), static_cast<std::int64_t>(v));
  EXPECT_EQ(closed, young_state_count_double_sum(u, v));
  EXPECT_EQ(closed, young_state_count_enumerated(u, v));

  const Mapping mapping = testing::single_comm_mapping(u, v);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto chain = explore_markings(teg, rates_from_durations(teg));
  EXPECT_EQ(static_cast<std::int64_t>(chain.num_states), closed)
      << "u=" << u << " v=" << v;
}

INSTANTIATE_TEST_SUITE_P(
    Dims, YoungStateSpaceTest,
    ::testing::Values(PatternDims{1, 1}, PatternDims{1, 2}, PatternDims{2, 1},
                      PatternDims{2, 3}, PatternDims{3, 2}, PatternDims{3, 4},
                      PatternDims{4, 3}, PatternDims{1, 6}, PatternDims{5, 2},
                      PatternDims{5, 4}));

TEST(YoungEnabledCount, DoubleSumMatchesClosedForm) {
  for (std::int64_t u = 1; u <= 8; ++u)
    for (std::int64_t v = 1; v <= 8; ++v)
      EXPECT_EQ(young_enabled_count(u, v),
                young_enabled_count_double_sum(u, v))
          << "u=" << u << " v=" << v;
}

TEST(YoungStationary, HomogeneousDistributionIsUniform) {
  // Theorem 4's key step: with one rate everywhere, every state has as many
  // incoming as outgoing edges, so the stationary distribution is uniform.
  const Mapping mapping = testing::single_comm_mapping(3, 4, 2.0);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto rates = rates_from_durations(teg);
  const auto chain = explore_markings(teg, rates);
  DenseMatrix q(chain.num_states, chain.num_states, 0.0);
  for (const auto& e : chain.edges) {
    if (e.from == e.to) continue;
    q(e.from, e.to) += rates[e.transition];
    q(e.from, e.from) -= rates[e.transition];
  }
  const Vector pi = stationary_dense(q);
  for (double p : pi)
    EXPECT_NEAR(p, 1.0 / static_cast<double>(chain.num_states), 1e-10);
}

class HomogeneousClosedFormTest
    : public ::testing::TestWithParam<PatternDims> {};

// Theorem 4 vs Theorem 3: the CTMC inner flow of a homogeneous pattern
// equals u*v*lambda/(u+v-1).
TEST_P(HomogeneousClosedFormTest, CtmcMatchesClosedForm) {
  const auto [u, v] = GetParam();
  if (std::gcd(u, v) != 1) GTEST_SKIP() << "patterns require gcd(u,v)=1";
  const double d = 2.5;  // rate 0.4
  const Mapping mapping = testing::single_comm_mapping(u, v, d);
  const auto patterns = comm_patterns(mapping, 0);
  const PatternFlow ctmc = pattern_flow_exponential(patterns[0]);
  const double closed =
      pattern_flow_exponential_homogeneous(u, v, 1.0 / d);
  EXPECT_NEAR(ctmc.inner_flow, closed, 1e-9 * closed)
      << "u=" << u << " v=" << v;
  EXPECT_EQ(static_cast<std::int64_t>(ctmc.num_states),
            young_state_count(static_cast<std::int64_t>(u),
                              static_cast<std::int64_t>(v)));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, HomogeneousClosedFormTest,
    ::testing::Values(PatternDims{1, 1}, PatternDims{2, 1}, PatternDims{1, 3},
                      PatternDims{2, 3}, PatternDims{3, 2}, PatternDims{4, 3},
                      PatternDims{3, 4}, PatternDims{5, 3}, PatternDims{5, 2},
                      PatternDims{2, 5}));

TEST(PatternFlow, HeterogeneousIsBelowBestAndAboveWorstHomogeneous) {
  const std::vector<double> times{1.0, 1.5, 2.0, 2.5, 3.0, 3.5};
  const Mapping mapping =
      testing::single_comm_mapping_heterogeneous(3, 2, times);
  const auto patterns = comm_patterns(mapping, 0);
  const PatternFlow flow = pattern_flow_exponential(patterns[0]);
  const double best = pattern_flow_exponential_homogeneous(3, 2, 1.0);
  const double worst = pattern_flow_exponential_homogeneous(3, 2, 1.0 / 3.5);
  EXPECT_LT(flow.inner_flow, best);
  EXPECT_GT(flow.inner_flow, worst);
}

TEST(PatternFlow, DeterministicHomogeneousIsMinUV) {
  for (const auto& [u, v] :
       std::vector<PatternDims>{{2, 3}, {3, 2}, {4, 3}, {1, 5}, {3, 3}}) {
    if (std::gcd(u, v) != 1) continue;
    const double d = 2.0;
    const Mapping mapping = testing::single_comm_mapping(u, v, d);
    const auto patterns = comm_patterns(mapping, 0);
    EXPECT_NEAR(pattern_flow_deterministic(patterns[0]),
                static_cast<double>(std::min(u, v)) / d, 1e-9)
        << "u=" << u << " v=" << v;
  }
}

TEST(PatternFlow, ExponentialBelowDeterministic) {
  // Theorem 7 at the pattern level: exponential flow < deterministic flow
  // whenever the pattern has genuine contention (u, v >= 2).
  for (const auto& [u, v] : std::vector<PatternDims>{{2, 3}, {3, 4}, {5, 2}}) {
    const Mapping mapping = testing::single_comm_mapping(u, v, 1.0);
    const auto patterns = comm_patterns(mapping, 0);
    const double exp_flow = pattern_flow_exponential(patterns[0]).inner_flow;
    const double det_flow = pattern_flow_deterministic(patterns[0]);
    EXPECT_LT(exp_flow, det_flow);
    // Fig 15's exact ratio: max(u,v) / (u+v-1).
    EXPECT_NEAR(exp_flow / det_flow,
                static_cast<double>(std::max(u, v)) /
                    static_cast<double>(u + v - 1),
                1e-9);
  }
}

TEST(PatternFlow, LargePatternsTakeGaussSeidelAndMatchDenseReference) {
  // S(6,5) = S(5,6) = 1260 > dense_threshold: the pattern CTMC is solved by
  // Gauss–Seidel, and agrees with the dense LU reference to 1e-9.
  for (const auto& [u, v] : std::vector<PatternDims>{{6, 5}, {5, 6}}) {
    std::vector<double> times;
    for (std::size_t t = 0; t < u * v; ++t) times.push_back(1.0 + 0.1 * t);
    const Mapping mapping =
        testing::single_comm_mapping_heterogeneous(u, v, times);
    const CommPattern pattern = comm_patterns(mapping, 0)[0];
    const TimedEventGraph teg = build_pattern_teg(pattern);
    const std::vector<double> rates = rates_from_durations(teg);
    const GeneralMethodResult gs = saturated_flow(teg, rates);
    EXPECT_EQ(gs.num_states, 1260u);
    EXPECT_EQ(gs.backend, StationaryBackend::kGaussSeidel);
    EXPECT_LE(gs.solver_residual, StationaryOptions{}.tolerance);
    EXPECT_EQ(pattern_flow_exponential(pattern).inner_flow, gs.throughput);
    GeneralMethodOptions dense;
    dense.dense_threshold = gs.num_states;
    const GeneralMethodResult lu = saturated_flow(teg, rates, dense);
    EXPECT_EQ(lu.backend, StationaryBackend::kDense);
    EXPECT_LE(relative_difference(gs.throughput, lu.throughput), 1e-9)
        << "u=" << u << " v=" << v;
  }
}

}  // namespace
}  // namespace streamflow
