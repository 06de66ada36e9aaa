// Google-benchmark microbenchmarks of the core algorithms: TPN construction,
// critical-cycle analysis, Young-pattern CTMC, reachability, and both
// simulators. Complements the figure benches (which reproduce the paper)
// with regression-trackable per-algorithm numbers.
#include <benchmark/benchmark.h>

#include "core/analyzer.hpp"
#include "markov/throughput.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"
#include "young/pattern_analysis.hpp"

namespace {

using namespace streamflow;

Mapping bench_mapping(std::int64_t max_paths) {
  Prng prng(42);
  RandomInstanceOptions options;
  options.num_stages = 6;
  options.num_processors = 18;
  options.max_paths = max_paths;
  return random_instance(options, prng);
}

void BM_BuildTpnOverlap(benchmark::State& state) {
  const Mapping mapping = bench_mapping(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_tpn(mapping, ExecutionModel::kOverlap));
  }
  state.SetLabel(std::to_string(mapping.num_paths()) + " rows");
}
BENCHMARK(BM_BuildTpnOverlap)->Arg(16)->Arg(64)->Arg(256);

void BM_DeterministicThroughput(benchmark::State& state) {
  const Mapping mapping = bench_mapping(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deterministic_throughput(mapping, ExecutionModel::kOverlap));
  }
}
BENCHMARK(BM_DeterministicThroughput)->Arg(16)->Arg(64)->Arg(256);

void BM_ExponentialColumns(benchmark::State& state) {
  const Mapping mapping = bench_mapping(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exponential_throughput(mapping, ExecutionModel::kOverlap));
  }
}
BENCHMARK(BM_ExponentialColumns)->Arg(16)->Arg(64)->Arg(256);

void BM_PatternCtmc(benchmark::State& state) {
  const auto u = static_cast<std::size_t>(state.range(0));
  const auto v = u + 1;
  Application app = Application::uniform(2);
  Platform platform = Platform::fully_connected(
      std::vector<double>(u + v, 1000.0), 1.0);
  std::vector<std::size_t> senders(u), receivers(v);
  for (std::size_t a = 0; a < u; ++a) senders[a] = a;
  for (std::size_t b = 0; b < v; ++b) receivers[b] = u + b;
  const Mapping mapping(make_instance(app, platform), {senders, receivers});
  const auto patterns = comm_patterns(mapping, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern_flow_exponential(patterns[0]));
  }
  state.SetLabel("S(u,v) states");
}
BENCHMARK(BM_PatternCtmc)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_ReachabilityStrict(benchmark::State& state) {
  Prng prng(7);
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 7;
  options.max_paths = state.range(0);
  const Mapping mapping = random_instance(options, prng);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  const auto rates = rates_from_durations(g);
  const TpnMarkovChain chain = explore_markings(g, rates);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore_markings(g, rates));
  }
  // Cost per explored state: items_per_second counts states.
  state.counters["states"] = static_cast<double>(chain.num_states);
  state.counters["edges"] = static_cast<double>(chain.edges.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chain.num_states));
}
BENCHMARK(BM_ReachabilityStrict)->Arg(4)->Arg(8);

void BM_TegSim(benchmark::State& state) {
  const Mapping mapping = bench_mapping(64);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto laws =
      transition_laws(g, StochasticTiming::exponential(mapping));
  TegSimOptions options;
  options.rounds = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_teg(g, laws, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(g.num_transitions()));
}
BENCHMARK(BM_TegSim)->Arg(100)->Arg(1000);

void BM_PipelineSim(benchmark::State& state) {
  const Mapping mapping = bench_mapping(64);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  PipelineSimOptions options;
  options.data_sets = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_pipeline(mapping, ExecutionModel::kOverlap, timing, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineSim)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
