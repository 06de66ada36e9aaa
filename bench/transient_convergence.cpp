// Supplementary figure: the theoretical counterpart of Fig 10's empirical
// convergence. For a 2x3 communication pattern, the EXACT finite-horizon
// throughput E[N(0,T)]/T computed by transient uniformization on the
// Theorem 3 CTMC is compared against the simulated finite-horizon rate and
// the stationary value; both converge to Theorem 4's closed form.
#include <numeric>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "fixtures.hpp"
#include "markov/throughput.hpp"
#include "sim/pipeline_sim.hpp"
#include "support/transient.hpp"
#include "tpn/columns.hpp"
#include "young/pattern_analysis.hpp"

int main(int argc, char** argv) {
  using namespace streamflow;
  using namespace streamflow::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);

  const std::size_t u = 2, v = 3;
  const double d = 1.0;
  const Mapping mapping = single_comm(u, v, d);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto rates = rates_from_durations(teg);
  const auto chain = explore_markings(teg, rates);
  std::vector<std::size_t> all(teg.num_transitions());
  std::iota(all.begin(), all.end(), std::size_t{0});

  const double stationary = pattern_flow_exponential_homogeneous(u, v, 1.0 / d);

  std::vector<double> horizons{2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 400.0};
  if (args.quick) horizons = {2.0, 25.0, 400.0};

  Table table({"horizon T", "exact E[N(T)]/T", "simulated N(T)/T",
               "stationary (Thm 4)"});
  double final_gap = 1.0;
  for (const double horizon : horizons) {
    const auto exact = transient_analysis(teg, chain, rates, all, horizon);
    // Empirical finite-horizon rate: average completions by time T across
    // replications of the pipeline simulation.
    RunningStats sim_rate;
    const int reps = args.quick ? 40 : 200;
    for (int rep = 0; rep < reps; ++rep) {
      PipelineSimOptions options;
      // Enough data sets to overshoot the horizon, then count completions
      // before T via the makespan-free estimate: run and scale. Simpler and
      // unbiased: simulate a fixed large count and use the completion rate
      // over [0, T] measured by the simulator protocol at warmup 0 with the
      // count chosen near the expected N(T).
      options.data_sets =
          std::max<std::int64_t>(10, static_cast<std::int64_t>(
                                         horizon * stationary * 1.0));
      options.warmup_fraction = 0.0;
      options.seed = 0x77AA + static_cast<std::uint64_t>(rep);
      const auto r = simulate_pipeline(
          mapping, ExecutionModel::kOverlap,
          StochasticTiming::exponential(mapping), options);
      sim_rate.add(r.throughput);
    }
    table.add_row({horizon, exact.average_throughput, sim_rate.mean(),
                   stationary});
    final_gap = relative_difference(exact.average_throughput, stationary);
  }
  emit(table, "Transient convergence — exact uniformization vs simulation",
       args);

  shape_check(final_gap < 0.02,
              "the exact finite-horizon throughput converges to Theorem 4's "
              "stationary value");
  return 0;
}
