#include "markov/throughput.hpp"

#include "linalg/sparse.hpp"

namespace streamflow {

std::vector<double> rates_from_durations(const TimedEventGraph& graph) {
  std::vector<double> rates;
  rates.reserve(graph.num_transitions());
  for (const Transition& t : graph.transitions()) {
    SF_REQUIRE(t.duration > 0.0,
               "exponential analysis requires positive mean durations");
    rates.push_back(1.0 / t.duration);
  }
  return rates;
}

namespace {

/// The stationary distribution of `chain` under `rates`: Gauss–Seidel on
/// the off-diagonal generator (self-loops cancel in it).
Vector solve_stationary(const TpnMarkovChain& chain,
                        const std::vector<double>& rates,
                        const GeneralMethodOptions& options,
                        StationarySolveStats* stats = nullptr) {
  const std::size_t n = chain.num_states;
  std::vector<Triplet> triplets;
  triplets.reserve(chain.edges.size());
  for (const CtmcEdge& e : chain.edges) {
    if (e.from == e.to) continue;
    triplets.push_back(Triplet{e.from, e.to, rates[e.transition]});
  }
  return stationary_gauss_seidel(CsrMatrix(n, n, std::move(triplets)),
                                 options.stationary, stats);
}

/// Fills the GeneralMethodResult observability fields describing how the
/// stationary solve went; the result's throughput stays the caller's job.
void apply_telemetry(GeneralMethodResult& result,
                     const StationarySolveStats& stats) {
  result.backend = StationaryBackend::kGaussSeidel;
  result.solver_iterations = stats.iterations;
  result.solver_residual = stats.residual;
}

}  // namespace

std::vector<double> stationary_frequencies(const TimedEventGraph& graph,
                                           const std::vector<double>& rates,
                                           const GeneralMethodOptions& options) {
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  return stationary_frequencies(graph, chain, rates, options);
}

std::vector<double> stationary_frequencies(const TimedEventGraph& graph,
                                           const TpnMarkovChain& chain,
                                           const std::vector<double>& rates,
                                           const GeneralMethodOptions& options) {
  const Vector pi = solve_stationary(chain, rates, options);
  std::vector<double> freq(graph.num_transitions(), 0.0);
  // Each state where t is enabled contributes exactly one outgoing edge for
  // t, so summing pi[from] * rate over edges gives rate * P(enabled).
  for (const CtmcEdge& e : chain.edges) {
    freq[e.transition] += pi[e.from] * rates[e.transition];
  }
  return freq;
}

GeneralMethodResult exponential_throughput_general(
    const TimedEventGraph& graph, const std::vector<double>& rates,
    const std::vector<std::size_t>& counted,
    const GeneralMethodOptions& options) {
  SF_REQUIRE(!counted.empty(), "no transitions selected for counting");
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  StationarySolveStats stats;
  const Vector pi = solve_stationary(chain, rates, options, &stats);

  std::vector<char> is_counted(graph.num_transitions(), 0);
  for (std::size_t t : counted) {
    SF_REQUIRE(t < graph.num_transitions(), "counted transition out of range");
    is_counted[t] = 1;
  }
  GeneralMethodResult result;
  result.num_states = chain.num_states;
  result.capacity_clipped = chain.capacity_clipped;
  apply_telemetry(result, stats);
  for (const CtmcEdge& e : chain.edges) {
    if (is_counted[e.transition])
      result.throughput += pi[e.from] * rates[e.transition];
  }
  return result;
}

GeneralMethodResult saturated_flow(const TimedEventGraph& graph,
                                   const std::vector<double>& rates,
                                   const GeneralMethodOptions& options) {
  SF_REQUIRE(graph.num_transitions() > 0, "empty event graph");
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  StationarySolveStats stats;
  const Vector pi = solve_stationary(chain, rates, options, &stats);
  GeneralMethodResult result;
  result.num_states = chain.num_states;
  result.capacity_clipped = chain.capacity_clipped;
  apply_telemetry(result, stats);
  for (const CtmcEdge& e : chain.edges) {
    result.throughput += pi[e.from] * rates[e.transition];
  }
  return result;
}

}  // namespace streamflow
