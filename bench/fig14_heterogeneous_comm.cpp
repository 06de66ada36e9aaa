// Figure 14 (§7.4): single communication over a HETEROGENEOUS network
// (per-link mean times drawn uniformly in [100, 1000]), with equal
// replication on both sides. With u senders and u receivers the column has
// gcd = u, so it splits into u independent 1x1 patterns: every data set
// crosses exactly ONE link ("due to the round-robin distribution, a single
// link limits all communications"), and the exponential case coincides with
// the constant case — unlike the homogeneous coprime patterns of Fig 13.
// Series: analytical constant case (scscyc analog), both simulators under
// constant and exponential times, and the Theorem 3/4 column method; all
// normalized to Cst(Simgrid).
#include "bench_util.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analyzer.hpp"
#include "maxplus/deterministic.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "tpn/builder.hpp"

namespace {

streamflow::Mapping heterogeneous_comm(std::size_t u, streamflow::Prng& prng) {
  using namespace streamflow;
  Application app = Application::uniform(2);
  Platform platform(std::vector<double>(2 * u, 1.0 / 1e-3));
  for (std::size_t a = 0; a < u; ++a)
    for (std::size_t b = 0; b < u; ++b)
      platform.set_bandwidth(a, u + b, 1.0 / prng.uniform(100.0, 1000.0));
  std::vector<std::size_t> senders(u), receivers(u);
  for (std::size_t a = 0; a < u; ++a) senders[a] = a;
  for (std::size_t b = 0; b < u; ++b) receivers[b] = u + b;
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {senders, receivers});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamflow;
  using namespace streamflow::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);

  std::vector<std::size_t> sizes{2, 3, 4, 5, 6, 7, 8, 9};
  if (args.quick) sizes = {2, 5, 9};

  Prng prng(0xFE14);
  Table table({"u=v", "Cst(scscyc)", "Cst(Simgrid)", "Cst(eg_sim)",
               "Exp(Simgrid)", "Exp(eg_sim)", "Exp(Thm3/4)"});
  double worst = 0.0;
  for (const std::size_t u : sizes) {
    const Mapping mapping = heterogeneous_comm(u, prng);
    const double analytic =
        deterministic_throughput(mapping, ExecutionModel::kOverlap).throughput;
    const double exp_analytic =
        exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;

    PipelineSimOptions pipe;
    pipe.data_sets = args.quick ? 20'000 : 60'000;
    const StochasticTiming cst_t = StochasticTiming::deterministic(mapping);
    const StochasticTiming exp_t = StochasticTiming::exponential(mapping);
    const double cst_pipe =
        simulate_pipeline(mapping, ExecutionModel::kOverlap, cst_t, pipe)
            .throughput;
    const double exp_pipe =
        simulate_pipeline(mapping, ExecutionModel::kOverlap, exp_t, pipe)
            .throughput;

    const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
    TegSimOptions teg;
    teg.rounds = args.quick ? 2'000 : 8'000;
    const double cst_teg =
        simulate_teg(g, transition_laws(g, cst_t), teg).throughput;
    const double exp_teg =
        simulate_teg(g, transition_laws(g, exp_t), teg).throughput;

    table.add_row({static_cast<std::int64_t>(u), analytic / cst_pipe,
                   1.0, cst_teg / cst_pipe, exp_pipe / cst_pipe,
                   exp_teg / cst_pipe, exp_analytic / cst_pipe});
    for (const double value :
         {analytic, cst_teg, exp_pipe, exp_teg, exp_analytic}) {
      worst = std::max(worst, relative_difference(value, cst_pipe));
    }
  }
  emit(table,
       "Fig 14 — heterogeneous network, u senders / u receivers "
       "(normalized to Cst(Simgrid))",
       args);

  shape_check(worst < 0.02,
              "all tools and both timing models agree within 2% — the "
              "exponential penalty vanishes when each data set uses a single "
              "link (paper: < 2%)");
  return 0;
}
