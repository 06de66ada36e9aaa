// Sampling-layer throughput: the SIMD-batched variate path (BufferedPrng +
// batched inversion transforms) versus the scalar one-call-per-draw baseline
// it replaces, measured at three levels.
//
// Part 1 is the headline replication-throughput check: R replications, each
// filling a buffer of uniform01 variates from its own substream, run through
// the ExperimentRunner once with the scalar per-call body and once with the
// SIMD-batched body. The outputs are checked BYTE-IDENTICAL first (batching
// must change how fast the stream is materialized, never the stream), then
// the shape check asserts the >= 3x replication-throughput win the sampling
// layer exists for. The check arms on every compiled SIMD kernel the host
// supports; on a scalar-fallback-only host it degrades to SHAPE-INFO (the
// fallback cannot be 3x itself).
//
// Part 2 times each distribution family through BatchSampler versus the
// scalar sample() loop on the same substream (byte-equality asserted). The
// inversion families (const/exp/uniform/weibull/pareto) ride the vectorized
// transform kernels; rejection families (gauss/gamma) fall back to scalar
// transforms over the buffered raw stream and mostly measure the buffer's
// overhead-free pass-through.
//
// Part 3 runs the replicated TEG simulator end to end with the scalar
// refill kernel versus the best one. The kernels must realize the same
// draws, so the per-replication results are checked BYTE-IDENTICAL before
// the realized replication speedup is reported.
//
// The bench exits 1 when a byte-identity check fails; speedups depend on
// the hardware and only print their verdicts.
//
//   ./build/bench_sampling_throughput [--csv] [--quick] [--json PATH]
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/buffered_prng.hpp"
#include "common/prng.hpp"
#include "common/simd_fill.hpp"
#include "common/table.hpp"
#include "dist/batch_sampler.hpp"
#include "dist/distribution.hpp"
#include "engine/sim_replication.hpp"
#include "model/mapping.hpp"
#include "model/timing.hpp"
#include "sim/teg_sim.hpp"
#include "tpn/builder.hpp"

namespace {

using namespace streamflow;
using namespace streamflow::bench;

/// Two stages, 3 senders / 2 receivers, exponential timings — a small §7.4
/// workload whose hot loop is pure sampling + max/plus arithmetic.
Mapping bench_mapping() {
  Application app = Application::uniform(2);
  std::vector<double> speeds(5, 1.0 / 1e-3);
  Platform platform{speeds};
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 2; ++b) platform.set_bandwidth(a, 3 + b, 1.0);
  return Mapping(std::move(app), std::move(platform), {{0, 1, 2}, {3, 4}});
}

struct Rate {
  double per_second = 0.0;
  double seconds = 0.0;
};

/// Replications per second of `body` on a single worker thread (serial
/// aggregation, so the measured loop is exactly the sampling work).
template <typename Body>
Rate replication_rate(std::size_t replications, std::uint64_t seed,
                      Body&& body) {
  ExperimentOptions options;
  options.replications = replications;
  options.threads = 1;
  options.seed = seed;
  const ExperimentRunner runner(options);
  const std::vector<std::string> metrics{"checksum"};
  runner.run(metrics, body);  // warmup (page in buffers, intern matrices)
  const Stopwatch watch;
  runner.run(metrics, body);
  Rate rate;
  rate.seconds = watch.seconds();
  rate.per_second = static_cast<double>(replications) / rate.seconds;
  return rate;
}

/// A cheap order-sensitive digest: batching bugs that reorder draws show up
/// here even if they preserve the value set.
double digest(const std::vector<double>& values) {
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); i += values.size() / 64 + 1)
    sum += values[i] * static_cast<double>(i + 1);
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);

  const std::size_t draws = args.quick ? 200'000 : 1'000'000;
  const std::size_t replications = args.quick ? 6 : 10;
  const simd::Isa best = simd::best_isa();
  const bool simd_available = best != simd::Isa::kScalar;

  std::cout << "sampling throughput bench: best kernel = "
            << simd::isa_name(best) << ", block = "
            << BufferedPrng::kDefaultBlockDraws << " draws, "
            << replications << " replications x " << draws << " draws\n\n";

  JsonObject summary;
  summary.set("bench", "sampling_throughput");
  summary.set("quick", args.quick);
  summary.set("best_isa", simd::isa_name(best));

  // --- Part 1: replication throughput, scalar vs batched ------------------
  std::vector<double> scalar_buf(draws), batched_buf(draws);
  const auto scalar_body = [&](Prng& prng, std::size_t) {
    for (std::size_t i = 0; i < draws; ++i)
      scalar_buf[i] = prng.uniform01();
    return std::vector<double>{digest(scalar_buf)};
  };
  const auto batched_body = [&](Prng& prng, std::size_t) {
    BufferedPrng buffered(prng, best);
    buffered.fill_uniform01(batched_buf.data(), draws);
    return std::vector<double>{digest(batched_buf)};
  };

  // Byte-equality first: same substream, same draws, bit for bit.
  {
    Prng probe(123);
    (void)scalar_body(probe, 0);
    Prng probe2(123);
    (void)batched_body(probe2, 0);
  }
  bool bytes_equal = scalar_buf == batched_buf;

  const Rate scalar_rate = replication_rate(replications, 42, scalar_body);
  const Rate batched_rate = replication_rate(replications, 42, batched_body);
  const double speedup = batched_rate.per_second / scalar_rate.per_second;

  Table part1({"body", "replications/s", "Mdraws/s", "seconds"});
  part1.add_row({std::string("scalar per-call"), scalar_rate.per_second,
                 scalar_rate.per_second * static_cast<double>(draws) / 1e6,
                 scalar_rate.seconds});
  part1.add_row({std::string("SIMD-batched (") +
                     simd::isa_name(best) + ")",
                 batched_rate.per_second,
                 batched_rate.per_second * static_cast<double>(draws) / 1e6,
                 batched_rate.seconds});
  emit(part1, "uniform01 replication throughput (1 worker)", args);
  std::cout << "\n";

  shape_check(bytes_equal,
              "batched uniform01 stream is byte-identical to the scalar "
              "stream per substream");
  {
    std::ostringstream os;
    os.precision(3);
    os << "replication throughput: batched/" << simd::isa_name(best) << " is "
       << speedup << "x scalar (target >= 3x)";
    if (simd_available) {
      shape_check(speedup >= 3.0, os.str());
    } else {
      shape_info(os.str() + " [scalar fallback only: check not armed]");
    }
  }

  JsonObject part1_json;
  part1_json.set("draws_per_replication", draws);
  part1_json.set("replications", replications);
  part1_json.set("scalar_reps_per_sec", scalar_rate.per_second);
  part1_json.set("batched_reps_per_sec", batched_rate.per_second);
  part1_json.set("speedup", speedup);
  part1_json.set("bytes_equal", bytes_equal);
  part1_json.set("shape_target", 3.0);
  part1_json.set("shape_armed", simd_available);
  part1_json.set("shape_ok", bytes_equal && (!simd_available || speedup >= 3.0));
  summary.set("replication_throughput", part1_json);

  // --- Part 2: per-family transform throughput ----------------------------
  struct Family {
    const char* key;
    DistributionPtr law;
  };
  const Family families[] = {
      {"exp", make_exponential_rate(1.0)},
      {"uniform", make_uniform(0.5, 2.0)},
      {"weibull", make_weibull(2.0, 1.0)},
      {"pareto", make_pareto(3.0, 1.0)},
      {"const", make_constant(1.0)},
      {"gauss", make_truncated_normal(10.0, 3.0)},
      {"gamma", make_gamma(2.0, 1.0)},
  };
  const std::size_t family_draws = draws / 2;

  Table part2({"family", "scalar ns/draw", "batched ns/draw", "speedup"});
  JsonObject families_json;
  bool family_bytes_equal = true;
  for (const Family& family : families) {
    Prng scalar_prng(7);
    std::vector<double> scalar_out(family_draws);
    Stopwatch scalar_watch;
    for (std::size_t i = 0; i < family_draws; ++i)
      scalar_out[i] = family.law->sample(scalar_prng);
    const double scalar_ns =
        scalar_watch.seconds() * 1e9 / static_cast<double>(family_draws);

    BatchSampler sampler(family.law, Prng(7), best,
                         BufferedPrng::kDefaultBlockDraws,
                         BatchSampler::kDefaultVariateCache);
    std::vector<double> batched_out(family_draws);
    Stopwatch batched_watch;
    for (std::size_t i = 0; i < family_draws; ++i)
      batched_out[i] = sampler.next();
    const double batched_ns =
        batched_watch.seconds() * 1e9 / static_cast<double>(family_draws);

    const bool equal = scalar_out == batched_out;
    family_bytes_equal = family_bytes_equal && equal;
    const double family_speedup = scalar_ns / batched_ns;
    part2.add_row({std::string(family.key), scalar_ns, batched_ns,
                   family_speedup});
    JsonObject family_json;
    family_json.set("scalar_ns_per_draw", scalar_ns);
    family_json.set("batched_ns_per_draw", batched_ns);
    family_json.set("speedup", family_speedup);
    family_json.set("bytes_equal", equal);
    families_json.set(family.key, family_json);
  }
  emit(part2, "per-family draw cost (scalar sample() vs BatchSampler)", args);
  std::cout << "\n";
  shape_check(family_bytes_equal,
              "every family's batched variates are byte-identical to the "
              "scalar sample() sequence");
  summary.set("families", families_json);

  // --- Part 3: replicated simulator end to end ----------------------------
  const Mapping mapping = bench_mapping();
  const TimedEventGraph graph = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  const std::vector<DistributionPtr> laws = transition_laws(graph, timing);

  TegSimOptions sim_options;
  sim_options.rounds = args.quick ? 2'000 : 10'000;
  ExperimentOptions exp_options;
  exp_options.replications = replications;
  exp_options.threads = 1;
  exp_options.seed = 42;

  ReplicatedResult scalar_sim, best_sim;
  const auto time_sim = [&](simd::Isa isa, ReplicatedResult& out) {
    TegSimOptions options = sim_options;
    options.refill_isa = isa;
    run_replicated_teg(graph, laws, options, exp_options);  // warmup
    const Stopwatch watch;
    out = run_replicated_teg(graph, laws, options, exp_options);
    return static_cast<double>(exp_options.replications) / watch.seconds();
  };
  const double sim_scalar = time_sim(simd::Isa::kScalar, scalar_sim);
  const double sim_batched = time_sim(best, best_sim);
  const double sim_speedup = sim_batched / sim_scalar;
  const bool sim_bytes_equal =
      scalar_sim.per_replication == best_sim.per_replication;

  Table part3({"refill kernel", "replications/s"});
  part3.add_row({std::string("scalar"), sim_scalar});
  part3.add_row({std::string(simd::isa_name(best)), sim_batched});
  emit(part3, "replicated TEG simulation (exp laws, 1 worker)", args);
  std::cout << "\n";
  shape_check(sim_bytes_equal,
              "replicated TEG simulation is byte-identical under the scalar "
              "and the best refill kernel");
  {
    std::ostringstream os;
    os.precision(3);
    os << "replicated TEG simulation: " << simd::isa_name(best)
       << " refill is " << sim_speedup
       << "x the scalar refill (sim arithmetic not batched)";
    shape_info(os.str());
  }

  JsonObject sim_json;
  sim_json.set("rounds", static_cast<std::size_t>(sim_options.rounds));
  sim_json.set("scalar_refill_reps_per_sec", sim_scalar);
  sim_json.set("best_refill_reps_per_sec", sim_batched);
  sim_json.set("speedup", sim_speedup);
  sim_json.set("bytes_equal", sim_bytes_equal);
  summary.set("teg_simulation", sim_json);

  write_json(args, summary);
  return bytes_equal && family_bytes_equal && sim_bytes_equal ? 0 : 1;
}
