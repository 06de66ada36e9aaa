// §7.7: running time of the tools. The paper reports that generating and
// analyzing instances takes under a second at 100 data sets / events and
// about three minutes at 100,000. This bench times every pipeline of the
// reproduction on the Fig 10 system (m = 420 rows), then sweeps the state
// space of the exact CTMC analyses (Strict chains of Theorem 2 and
// Young-diagram pattern chains of Theorem 3) and splits each solve into its
// reachability and stationary layers.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_util.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analyzer.hpp"
#include "fixtures.hpp"
#include "markov/throughput.hpp"
#include "maxplus/deterministic.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "support/stationary_reference.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"

namespace {

using namespace streamflow;

/// Chains are checked against the dense LU reference up to this size: a
/// dense LU beyond it takes seconds.
constexpr std::size_t kDenseCheckMax = 2500;

/// Chains above this size join the speedup verdict. On smaller chains the
/// ratio measures fixed set-up costs more than the LU's O(n^3) growth, and
/// on the smallest the LU is the faster of the two.
constexpr std::size_t kSpeedupCheckMin = 1200;

/// A heterogeneous fully connected platform with one contiguous team per
/// stage; speeds and bandwidths drawn from `prng`.
Mapping strict_chain(const std::vector<std::size_t>& team_sizes, Prng& prng) {
  std::size_t processors = 0;
  for (const std::size_t size : team_sizes) processors += size;
  std::vector<double> speeds;
  for (std::size_t p = 0; p < processors; ++p) {
    speeds.push_back(prng.uniform(0.5, 2.0));
  }
  Platform platform{std::move(speeds)};
  for (std::size_t p = 0; p < processors; ++p) {
    for (std::size_t q = p + 1; q < processors; ++q) {
      platform.set_bandwidth(p, q, prng.uniform(0.5, 2.0));
    }
  }
  std::vector<std::vector<std::size_t>> teams(team_sizes.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < team_sizes.size(); ++i) {
    for (std::size_t r = 0; r < team_sizes[i]; ++r) teams[i].push_back(next++);
  }
  return Mapping(Application::uniform(team_sizes.size()), std::move(platform),
                 std::move(teams));
}

/// A u x v pattern with link durations drawn from `prng`.
CommPattern random_pattern(std::size_t u, std::size_t v, Prng& prng) {
  CommPattern pattern;
  pattern.u = u;
  pattern.v = v;
  for (std::size_t a = 0; a < u; ++a) pattern.senders.push_back(a);
  for (std::size_t b = 0; b < v; ++b) pattern.receivers.push_back(u + b);
  for (std::size_t t = 0; t < u * v; ++t) {
    pattern.durations.push_back(prng.uniform(0.5, 2.0));
  }
  return pattern;
}

/// Scientific notation for the tiny residuals, "-" where not measured.
std::string sci(double value) {
  if (std::isnan(value)) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1e", value);
  return buffer;
}

/// Verdict inputs gathered over the sweep.
struct SweepVerdicts {
  bool residuals_ok = true;
  double worst_agreement = 0.0;
  double slowest_speedup = std::numeric_limits<double>::infinity();
  std::size_t compared = 0;
  std::size_t speedup_compared = 0;
};

/// Times one chain layer by layer and adds its row: reachability, the
/// Gauss–Seidel stationary solve, and, up to kDenseCheckMax states, the
/// dense LU reference it must agree with.
void sweep_row(const std::string& label, const TimedEventGraph& graph,
               const std::vector<std::size_t>& counted, Table& table,
               SweepVerdicts& verdicts) {
  const std::vector<double> rates = rates_from_durations(graph);
  const GeneralMethodOptions options;
  bench::Stopwatch reach_watch;
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  const double reach_s = reach_watch.seconds();
  const auto throughput = [&](const std::vector<double>& freq) {
    double sum = 0.0;
    for (const std::size_t t : counted) sum += freq[t];
    return sum;
  };
  bench::Stopwatch solve_watch;
  const double solved =
      throughput(stationary_frequencies(graph, chain, rates, options));
  const double solve_s = solve_watch.seconds();
  // Telemetry from a second, untimed pass through the public entry point.
  const GeneralMethodResult telemetry =
      exponential_throughput_general(graph, rates, counted, options);
  if (telemetry.solver_residual > options.stationary.tolerance) {
    verdicts.residuals_ok = false;
  }

  double dense_s = std::nan("");
  double agreement = std::nan("");
  const std::size_t n = chain.num_states;
  if (n <= kDenseCheckMax) {
    bench::Stopwatch dense_watch;
    const double reference =
        dense_reference(graph, chain, rates, counted).throughput;
    dense_s = dense_watch.seconds();
    agreement = relative_difference(solved, reference);
    verdicts.worst_agreement = std::max(verdicts.worst_agreement, agreement);
    ++verdicts.compared;
    if (n > kSpeedupCheckMin) {
      verdicts.slowest_speedup =
          std::min(verdicts.slowest_speedup, dense_s / solve_s);
      ++verdicts.speedup_compared;
    }
  }
  table.add_row({label, static_cast<std::int64_t>(n),
                 static_cast<std::int64_t>(chain.edges.size()),
                 static_cast<std::int64_t>(telemetry.solver_iterations),
                 sci(telemetry.solver_residual), reach_s, solve_s,
                 std::isnan(dense_s) ? Table::Cell{std::string("-")}
                                     : Table::Cell{dense_s},
                 sci(agreement)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamflow;
  using namespace streamflow::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);

  const Mapping mapping = fig10_system();
  Table table({"tool", "work", "seconds"});

  {
    Stopwatch sw;
    const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
    table.add_row({std::string("build_tpn (Overlap)"),
                   std::to_string(g.num_transitions()) + " transitions",
                   sw.seconds()});
  }
  {
    Stopwatch sw;
    const auto det =
        deterministic_throughput(mapping, ExecutionModel::kOverlap);
    table.add_row({std::string("deterministic analysis"),
                   "rho=" + std::to_string(det.throughput), sw.seconds()});
  }
  {
    Stopwatch sw;
    const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
    table.add_row({std::string("exponential columns (Thm 3/4)"),
                   "rho=" + std::to_string(exp.throughput), sw.seconds()});
  }
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming exp_timing = StochasticTiming::exponential(mapping);
  const auto laws = transition_laws(g, exp_timing);
  for (const std::int64_t events :
       {std::int64_t{100}, std::int64_t{10'000},
        args.quick ? std::int64_t{20'000} : std::int64_t{100'000}}) {
    Stopwatch sw;
    TegSimOptions options;
    options.rounds = std::max<std::int64_t>(10, events / mapping.num_paths());
    simulate_teg(g, laws, options);
    table.add_row({std::string("eg_sim (exponential)"),
                   std::to_string(events) + " data sets", sw.seconds()});
  }
  for (const std::int64_t sets :
       {std::int64_t{100}, std::int64_t{10'000},
        args.quick ? std::int64_t{20'000} : std::int64_t{100'000}}) {
    Stopwatch sw;
    PipelineSimOptions options;
    options.data_sets = std::max<std::int64_t>(100, sets);
    options.warmup_fraction = 0.0;
    simulate_pipeline(mapping, ExecutionModel::kOverlap, exp_timing, options);
    table.add_row({std::string("pipeline sim (exponential)"),
                   std::to_string(sets) + " data sets", sw.seconds()});
  }
  emit(table, "§7.7 — running time of the tools", args);

  // Timings depend on the host, so this is reported, not asserted.
  shape_info(
      "all analyses and 100k-data-set simulations complete in seconds "
      "(paper: < 1 s at 100, ~3 min at 100k on 2009 hardware)");

  Table sweep({"chain", "states", "edges", "sweeps", "residual",
               "reachability_s", "stationary_s", "dense_lu_s",
               "rel_diff_vs_lu"});
  SweepVerdicts verdicts;
  Prng prng(77);
  std::vector<std::vector<std::size_t>> shapes{
      {1, 2, 2}, {1, 2, 3}, {1, 3, 2}, {2, 2, 2, 1}, {2, 2, 3}};
  if (!args.quick) shapes.push_back({1, 4, 3});
  for (const auto& shape : shapes) {
    std::string label = "Strict";
    for (const std::size_t size : shape) {
      label += ' ';
      label += std::to_string(size);
    }
    const TimedEventGraph g =
        build_tpn(strict_chain(shape, prng), ExecutionModel::kStrict);
    sweep_row(label, g, g.last_column_transitions(), sweep, verdicts);
  }
  std::vector<std::pair<std::size_t, std::size_t>> dims{
      {5, 4}, {7, 4}, {6, 5}, {7, 5}};
  if (!args.quick) dims.push_back({7, 6});
  for (const auto& [u, v] : dims) {
    const TimedEventGraph g = build_pattern_teg(random_pattern(u, v, prng));
    sweep_row("pattern " + std::to_string(u) + "x" + std::to_string(v), g,
              all_transitions(g), sweep, verdicts);
  }
  emit(sweep,
       "State-space sweep — reachability vs Gauss-Seidel stationary solve, "
       "checked against the dense LU reference",
       args);

  const bool agreement_ok =
      verdicts.compared > 0 && verdicts.worst_agreement <= 1e-9;
  const bool speedup_ok =
      verdicts.speedup_compared > 0 && verdicts.slowest_speedup >= 5.0;
  shape_check(verdicts.residuals_ok,
              "every stationary solve reports a residual within tolerance");
  shape_check(agreement_ok,
              "Gauss-Seidel matches the dense LU reference on every chain "
              "up to " + std::to_string(kDenseCheckMax) +
                  " states (worst relative difference " +
                  sci(verdicts.worst_agreement) + " over " +
                  std::to_string(verdicts.compared) + " chains, bound 1e-9)");
  shape_check(speedup_ok,
              "Gauss-Seidel >= 5x faster than the dense LU on every compared "
              "chain above " + std::to_string(kSpeedupCheckMin) +
                  " states (slowest " +
                  std::to_string(verdicts.slowest_speedup) + "x over " +
                  std::to_string(verdicts.speedup_compared) + " chains)");
  return verdicts.residuals_ok && agreement_ok && speedup_ok ? 0 : 1;
}
