// bench_e2e — the end-to-end benchmark of streamflow.
//
// Five workloads, one per process, each driven through the surface a user
// drives: the serve loop (serve/server.hpp) behind a pipe pair, or the
// parallel portfolio search (engine/parallel_search.hpp) the CLI `search
// --threads` path runs. Every output is verified.
//
//   bench_e2e --workload NAME --seed S [--seconds N] [--trace 0|1]
//             [--trace-out FILE]
//
// Untraced run (--trace 0, the default): set the system up five times, each
// time ending with a window of warm-up operations drawn from a fixed seed,
// and keep the median set-up time; drive operations 0, 1, ... for N seconds
// (default 20, never fewer than the workload's prefix or three measurement
// windows); then verify. Prints the end-to-end metrics: rates are medians
// over windows of a fixed number of operations, latencies percentiles over
// every operation.
//
// Traced run (--trace 1): the prefix operations only, in four phases. (A) the
// same closed loop as the untraced run; (B) a serial replay through
// handle_request, the untraced baseline; (C) a serial replay decomposed into
// the public calls of each layer, each call recorded as a span (name, start,
// end, parent, operation), whose results must be bit-equal to phase A's
// responses; (D) attribution replays that read solver telemetry, kept out of
// the overhead figure. Prints the per-layer metrics; --trace-out writes the
// spans as Chrome trace-event JSON.
//
// Operation k of a run is a pure function of (seed, k): raising the number of
// operations never changes an earlier one. Team sizes come from a fixed
// stream indexed by k alone and every value (works, speeds, bandwidths,
// search and simulation seeds) from Prng(seed).split(k), so two seeds run the
// same CTMC shapes and differ only in the numbers — the spread between seeds
// measures the system, not a different mix of problem sizes.
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}; the line before it, "# info {...}",
// carries the result digest. Exit status: 0 when every operation and check
// passed, 1 otherwise, 2 on a usage error.
//
// lint:allow-file(wall-clock): benchmark timing; no result reads it
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffered_prng.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/simd_fill.hpp"
#include "common/stats.hpp"
#include "core/analysis_context.hpp"
#include "core/heuristics.hpp"
#include "core/pattern_store.hpp"
#include "dist/batch_sampler.hpp"
#include "dist/distribution.hpp"
#include "engine/parallel_search.hpp"
#include "engine/stream_factory.hpp"
#include "fuzz/diff_harness.hpp"
#include "markov/reachability.hpp"
#include "markov/throughput.hpp"
#include "maxplus/deterministic.hpp"
#include "model/serialization.hpp"
#include "model/timing.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/pipeline_sim.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"
#include "tpn/graph.hpp"

namespace streamflow::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind {
  kAnalyzeCold,
  kAnalyzeWarm,
  kAnalyzeStrict,
  kSimulate,
  kPortfolio,
};

struct Workload {
  const char* name;
  Kind kind;
  /// Percentile reported as latency_tail_ms. Every one leaves well over ten
  /// samples beyond it in a 20-second run on a 4-core host.
  double tail;
  const char* tail_label;
  /// Operations 0..prefix-1 always complete. They carry the result digest,
  /// the 1-in-16 verification sample and the traced replay, so all three
  /// are the same work whatever the run length.
  std::size_t prefix;
  /// Operations per measurement window (see LoopStats): a multiple of
  /// kInFlight, so whole serve batches, and of the workload's cycle of
  /// shapes, laws or pool instances; half a second to two seconds of work.
  std::size_t window;
};

// Why each workload exists is recorded in bench_e2e/README.md.
constexpr Workload kWorkloads[] = {
    {"analyze-cold", Kind::kAnalyzeCold, 0.99, "p99", 512, 1024},
    {"analyze-warm", Kind::kAnalyzeWarm, 0.99, "p99", 2048, 2048},
    {"analyze-strict", Kind::kAnalyzeStrict, 0.90, "p90", 10, 40},
    {"simulate", Kind::kSimulate, 0.90, "p90", 24, 48},
    {"search-portfolio", Kind::kPortfolio, 0.75, "p75", 4, 16},
};

/// A timed phase runs at least this many whole windows, however short
/// --seconds is.
constexpr std::size_t kMinWindows = 3;

std::size_t min_operations(const Workload& workload) {
  return std::max(workload.prefix, kMinWindows * workload.window);
}

/// Requests outstanding in the serve workloads' closed loop.
constexpr std::size_t kInFlight = 8;
/// ServeOptions::threads: the generator, the serve loop thread and two
/// workers stay within a 4-core host.
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kSetupRepeats = 5;
/// One operation in this many (of the prefix) is recomputed after timing.
constexpr std::size_t kSampleStride = 16;
/// analyze-warm cycles the generator's first kWarmPool instances.
constexpr std::size_t kWarmPool = 16;
constexpr std::uint64_t kSimDataSets = 20000;
constexpr std::uint64_t kSimReplications = 8;
/// Two batched-inversion laws and one rejection law.
constexpr const char* kSimLaws[] = {"exp:1", "weibull:2,1", "gamma:2,0.5"};
constexpr std::size_t kPortfolioRestarts = 8;
/// Seed of the team-size stream (see the file comment).
constexpr std::uint64_t kShapeSeed = 0x5EEDE2E0ULL;
/// Seed of the set-up's warm-up operations: every run, whatever its --seed,
/// sets up with the same work.
constexpr std::uint64_t kWarmupSeed = 0x3A5F0C1D9E2B7764ULL;

std::size_t hardware_threads() {
  const unsigned detected = std::thread::hardware_concurrency();
  return detected == 0 ? 1 : detected;
}

std::size_t portfolio_threads() {
  return std::min<std::size_t>(4, hardware_threads());
}

/// A fully connected heterogeneous instance: every processor pair has its
/// own bandwidth, so every cross-team pattern is heterogeneous (a CTMC
/// solve) and no two operations share a pattern signature. Teams are
/// contiguous processor ranges.
Mapping connected_instance(const std::vector<std::size_t>& team_sizes,
                           Prng& values) {
  const std::size_t stages = team_sizes.size();
  std::size_t processors = 0;
  for (const std::size_t size : team_sizes) processors += size;
  std::vector<double> works;
  for (std::size_t i = 0; i < stages; ++i) {
    works.push_back(values.uniform(1.0, 4.0));
  }
  std::vector<double> files;
  for (std::size_t i = 0; i + 1 < stages; ++i) {
    files.push_back(values.uniform(1.0, 4.0));
  }
  std::vector<double> speeds;
  for (std::size_t p = 0; p < processors; ++p) {
    speeds.push_back(values.uniform(0.5, 2.0));
  }
  Platform platform{std::move(speeds)};
  for (std::size_t p = 0; p < processors; ++p) {
    for (std::size_t q = p + 1; q < processors; ++q) {
      platform.set_bandwidth(p, q, values.uniform(0.5, 2.0));
    }
  }
  std::vector<std::vector<std::size_t>> teams(stages);
  std::size_t next = 0;
  for (std::size_t i = 0; i < stages; ++i) {
    for (std::size_t r = 0; r < team_sizes[i]; ++r) teams[i].push_back(next++);
  }
  return Mapping(make_instance(Application(std::move(works), std::move(files)),
                               std::move(platform)),
                 std::move(teams));
}

/// The operation stream of one (workload, seed).
class Generator {
 public:
  Generator(const Workload& workload, std::uint64_t seed)
      : kind_(workload.kind), seed_(seed) {
    if (kind_ == Kind::kAnalyzeWarm) {
      for (std::size_t k = 0; k < kWarmPool; ++k) {
        warm_pool_.push_back(json_escape(instance_to_string(mapping(k))));
      }
    }
  }

  /// The instance of operation k.
  Mapping mapping(std::size_t k) const {
    const std::size_t index = kind_ == Kind::kAnalyzeWarm ? k % kWarmPool : k;
    Prng values = Prng(seed_).split(index);
    return connected_instance(team_sizes(index), values);
  }

  /// The serve request line of operation k (serve workloads).
  std::string request(std::size_t k) const {
    std::string line = "{\"id\":" + std::to_string(k) + ",\"op\":\"";
    line += kind_ == Kind::kSimulate ? "simulate" : "analyze";
    line += "\",\"instance\":\"";
    line += kind_ == Kind::kAnalyzeWarm
                ? warm_pool_[k % kWarmPool]
                : json_escape(instance_to_string(mapping(k)));
    line += "\"";
    if (kind_ == Kind::kAnalyzeStrict) line += ",\"model\":\"strict\"";
    if (kind_ == Kind::kSimulate) {
      line += ",\"law\":\"" + std::string(law(k)) +
              "\",\"data_sets\":" + std::to_string(kSimDataSets) +
              ",\"replications\":" + std::to_string(kSimReplications) +
              ",\"seed\":" + std::to_string(operation_seed(k));
    }
    return line + "}";
  }

  const char* law(std::size_t k) const { return kSimLaws[k % 3]; }

  /// Options of portfolio job k (threads left to the caller).
  ParallelSearchOptions search(std::size_t k) const {
    ParallelSearchOptions options;
    options.search.kind = RestartKind::kGreedyLocal;
    options.search.restarts = kPortfolioRestarts;
    options.search.bounds = BoundPolicy::kMctMaxplus;
    options.search.seed = operation_seed(k);
    return options;
  }

 private:
  std::vector<std::size_t> team_sizes(std::size_t k) const {
    static const std::vector<std::size_t> kStrictShapes[] = {
        {2, 3, 2}, {3, 2, 3}, {2, 3, 3}, {1, 3, 2, 1}, {2, 2, 2, 1}};
    Prng shape = Prng(kShapeSeed).split(k);
    switch (kind_) {
      case Kind::kAnalyzeStrict:
        return kStrictShapes[k % 5];
      case Kind::kSimulate: {
        std::vector<std::size_t> sizes;
        for (int i = 0; i < 5; ++i) sizes.push_back(1 + shape.uniform_index(4));
        return sizes;
      }
      case Kind::kPortfolio:
        return {2, 3, 4 + shape.uniform_index(4), 3, 2};
      default: {
        // Sizes 1..5: the largest pattern, 5x4, has 280 states and takes
        // the dense LU. A 6x5 pattern has 1260, above dense_threshold, and
        // would bring a value-dependent power iteration into analyze-cold.
        std::vector<std::size_t> sizes;
        for (int i = 0; i < 5; ++i) sizes.push_back(1 + shape.uniform_index(5));
        return sizes;
      }
    }
  }

  /// A search or simulation seed drawn after the instance's values, kept
  /// under 2^53 so it survives any JSON reader.
  std::uint64_t operation_seed(std::size_t k) const {
    Prng values = Prng(seed_).split(k);
    (void)connected_instance(team_sizes(k), values);
    return values.next_u64() >> 11;
  }

  Kind kind_;
  std::uint64_t seed_;
  std::vector<std::string> warm_pool_;  ///< escaped instance texts
};

// ---------------------------------------------------------------------------
// Responses, checks, digests
// ---------------------------------------------------------------------------

/// Raw JSON token of `key` in a flat response line; "" when absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + marker.size();
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double to_double(const std::string& token) {
  if (token.empty()) return std::nan("");
  return std::strtod(token.c_str(), nullptr);
}

/// A double spelled as serve's JsonWriter spells it.
std::string number_text(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Counts failed checks; reports the first few on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_;
    if (failed_ <= 10) std::cerr << "check failed: " << what << "\n";
  }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t failed_ = 0;
};

/// The inline check of one serve response: "ok":true, and for analyze
/// Theorem 7's rho_exp <= rho_det.
void check_response(Kind kind, std::size_t k, const std::string& response,
                    Checks& checks) {
  const std::string op = "operation " + std::to_string(k);
  if (field(response, "ok") != "true") {
    checks.expect(false, op + " failed: " + response.substr(0, 300));
    return;
  }
  if (kind != Kind::kSimulate) {
    const double det = to_double(field(response, "deterministic"));
    const double exp = to_double(field(response, "exponential"));
    checks.expect(exp > 0.0 && exp <= det * (1.0 + 1e-9),
                  op + ": exponential " + number_text(exp) +
                      " above deterministic " + number_text(det));
  }
}

bool in_sample(std::size_t k) {
  return k % kSampleStride == (k / kSampleStride) % kSampleStride;
}

/// FNV-1a over the results of the prefix operations, in operation order.
std::uint64_t digest(const std::vector<std::string>& results) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& result : results) {
    for (const char c : result + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Nearest-rank percentile: q = 0.5 of an odd count is its median.
double percentile(std::vector<double> samples, double q) {
  SF_REQUIRE(!samples.empty(), "percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) -
                 1];
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::vector<Metric> metrics;
  std::uint64_t digest = 0;
};

// ---------------------------------------------------------------------------
// The serve loop behind a pipe pair
// ---------------------------------------------------------------------------

ServeOptions serve_options(std::size_t threads, PatternStore* store) {
  ServeOptions options;
  options.threads = threads;
  options.store = store;
  return options;
}

/// One serve loop on its own thread behind a pair of POSIX pipes — the pipe
/// mode of `streamflow serve`, FdStreamBuf included.
class PipeServer {
 public:
  explicit PipeServer(const ServeOptions& options) {
    SF_REQUIRE(::pipe(to_server_) == 0, "pipe() failed");
    if (::pipe(from_server_) != 0) {
      ::close(to_server_[0]);
      ::close(to_server_[1]);
      throw Error("pipe() failed");
    }
    request_buf_ = std::make_unique<FdStreamBuf>(to_server_[1]);
    response_buf_ = std::make_unique<FdStreamBuf>(from_server_[0]);
    requests_ = std::make_unique<std::ostream>(request_buf_.get());
    responses_ = std::make_unique<std::istream>(response_buf_.get());
    thread_ = std::thread([this, options] { serve(options); });
  }

  ~PipeServer() {
    try {
      stop();
    } catch (...) {
      // stop() joins before it can throw; nothing is left running.
    }
    requests_.reset();
    responses_.reset();
    request_buf_.reset();
    response_buf_.reset();
    ::close(to_server_[1]);
    ::close(from_server_[0]);
  }

  PipeServer(const PipeServer&) = delete;
  PipeServer& operator=(const PipeServer&) = delete;

  void send(const std::string& line) { *requests_ << line << '\n'; }
  void flush() { requests_->flush(); }

  /// True when a response has already arrived and receive() won't block.
  bool response_ready() { return responses_->rdbuf()->in_avail() > 0; }

  std::string receive() {
    std::string line;
    if (!std::getline(*responses_, line)) {
      throw Error("the serve loop closed its output: " + error_);
    }
    return line;
  }

  /// Sends shutdown, drains to its acknowledgement and joins the loop.
  ServeResult stop() {
    if (thread_.joinable()) {
      *requests_ << "{\"op\":\"shutdown\"}\n" << std::flush;
      std::string line;
      while (std::getline(*responses_, line) &&
             line.find("\"stopping\":true") == std::string::npos) {
      }
      thread_.join();
    }
    return result_;
  }

 private:
  void serve(const ServeOptions& options) {
    {
      FdStreamBuf in_buf(to_server_[0]);
      FdStreamBuf out_buf(from_server_[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      try {
        result_ = run_serve_loop(in, out, options);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
      out.flush();
    }
    // Closing the loop's ends turns a dead loop into EOF for the client.
    ::close(to_server_[0]);
    ::close(from_server_[1]);
  }

  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
  std::unique_ptr<FdStreamBuf> request_buf_;
  std::unique_ptr<FdStreamBuf> response_buf_;
  std::unique_ptr<std::ostream> requests_;
  std::unique_ptr<std::istream> responses_;
  ServeResult result_;
  std::string error_;
  std::thread thread_;  // last: starts after every member it uses
};

/// What a timed phase measured. Operations are counted in windows of
/// `window` consecutive operations, and the wall and CPU time of every whole
/// window is kept: the rates are medians over windows, so a few seconds of
/// host slowdown move a window or two rather than the run's figure.
struct LoopStats {
  explicit LoopStats(std::size_t window_ops = 0) : window(window_ops) {}

  /// Starts the first window.
  void begin() {
    mark_wall = Clock::now();
    mark_cpu = cpu_seconds();
  }

  /// Counts one completed operation and its latency; closes the window it
  /// completes.
  void complete(double latency) {
    latency_ms.push_back(latency);
    ++completed;
    if (window == 0 || completed % window != 0) return;
    const Clock::time_point now = Clock::now();
    const double cpu = cpu_seconds();
    window_wall_s.push_back(std::chrono::duration<double>(now - mark_wall)
                                .count());
    window_cpu_s.push_back(cpu - mark_cpu);
    mark_wall = now;
    mark_cpu = cpu;
  }

  std::size_t window;
  std::size_t completed = 0;
  std::vector<double> latency_ms;
  std::vector<double> window_wall_s;
  std::vector<double> window_cpu_s;
  Clock::time_point mark_wall;
  double mark_cpu = 0.0;
};

/// Drives operations first, first+1, ... through `server` as a closed loop
/// with kInFlight requests outstanding, handing each response to
/// `on_response(k, response)` in operation order. Sending stops once
/// `seconds` have passed and operation min_next-1 has been sent; the
/// outstanding responses are then drained.
///
/// The client reads every response that has already arrived before it
/// refills, and writes the refills in one flush, so they reach the serve
/// loop as one batch: the batches do not depend on which thread wins a
/// race. The next refills are built while the serve loop works, which keeps
/// the generator off the critical path. `window` is LoopStats' window (0:
/// none).
template <typename Request, typename OnResponse>
LoopStats closed_loop(PipeServer& server, const Request& request,
                      std::size_t first, std::size_t min_next, double seconds,
                      std::size_t window, const OnResponse& on_response) {
  LoopStats stats(window);
  std::deque<std::pair<std::size_t, Clock::time_point>> in_flight;
  std::deque<std::string> prepared;  ///< lines of operations next, next+1...
  std::size_t next = first;
  bool sending = true;
  const Clock::time_point start = Clock::now();
  stats.begin();
  for (;;) {
    while (sending && in_flight.size() < kInFlight) {
      if (next >= min_next && seconds_since(start) >= seconds) {
        sending = false;
        break;
      }
      if (prepared.empty()) prepared.push_back(request(next));
      in_flight.emplace_back(next, Clock::now());
      server.send(prepared.front());
      prepared.pop_front();
      ++next;
    }
    server.flush();
    if (in_flight.empty()) break;
    while (sending && prepared.size() < kInFlight &&
           (seconds > 0.0 || next + prepared.size() < min_next)) {
      prepared.push_back(request(next + prepared.size()));
    }
    do {
      std::string response = server.receive();
      const auto [k, sent] = in_flight.front();
      in_flight.pop_front();
      stats.complete(
          std::chrono::duration<double, std::milli>(Clock::now() - sent)
              .count());
      on_response(k, std::move(response));
    } while (!in_flight.empty() && server.response_ready());
  }
  return stats;
}

/// analyze-warm's set-up: one pass over the pool publishes every pattern.
void prewarm(PatternStore& store, const Generator& gen) {
  for (std::size_t k = 0; k < kWarmPool; ++k) {
    (void)handle_request(gen.request(k), serve_options(1, &store));
  }
}

/// A fresh store for one phase, pre-warmed for analyze-warm.
std::unique_ptr<PatternStore> fresh_store(Kind kind, const Generator& gen) {
  auto store = std::make_unique<PatternStore>();
  if (kind == Kind::kAnalyzeWarm) prewarm(*store, gen);
  return store;
}

/// Theorem 7's sandwich rho_exp <= rho <= rho_det for one simulate response,
/// with the differential harness's statistical slack.
void check_sandwich(const Generator& gen, std::size_t k,
                    const std::string& response, Checks& checks) {
  const Mapping mapping = gen.mapping(k);
  const double lower =
      AnalysisContext().exponential(mapping, ExecutionModel::kOverlap)
          .throughput;
  const double upper =
      deterministic_throughput(mapping, ExecutionModel::kOverlap).throughput;
  const double mean = to_double(field(response, "throughput"));
  const double halfwidth = to_double(field(response, "ci95"));
  const HarnessOptions defaults;
  const auto slack = [&](double bound) {
    return defaults.ci_sigmas * halfwidth +
           defaults.rel_slack * std::fabs(bound);
  };
  checks.expect(
      (lower - mean) <= slack(lower) && (mean - upper) <= slack(upper),
      "operation " + std::to_string(k) + ": simulated " + number_text(mean) +
          " +/- " + number_text(halfwidth) + " escapes [" +
          number_text(lower) + ", " + number_text(upper) + "]");
}

double median(std::vector<double> samples) {
  SF_REQUIRE(!samples.empty(), "median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::vector<Metric> end_to_end_metrics(const Workload& workload,
                                       const LoopStats& loop,
                                       const std::vector<double>& setup_s) {
  const auto ops = static_cast<double>(loop.window);
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  for (std::size_t i = 0; i < loop.window_wall_s.size(); ++i) {
    rate.push_back(ops / loop.window_wall_s[i]);
    cpu_ms.push_back(1e3 * loop.window_cpu_s[i] / ops);
  }
  return {
      {"ops_per_s", median(rate), "1/s"},
      {"latency_p50_ms", median(loop.latency_ms), "ms"},
      {"latency_tail_ms", percentile(loop.latency_ms, workload.tail), "ms"},
      {"cpu_ms_per_op", median(cpu_ms), "ms"},
      {"setup_s", median(setup_s), "s"},
  };
}

// ---------------------------------------------------------------------------
// Untraced runs
// ---------------------------------------------------------------------------

/// Set-up (repeated kSetupRepeats times, the median reported): a store,
/// pre-warmed for analyze-warm, the serve loop and its pool, and a first
/// window of kInFlight warm-up operations. Then the timed closed loop over
/// operations 0, 1, ... and the verification.
Report run_serve(const Workload& workload, const Generator& gen,
                 const Generator& warmup, double seconds, Checks& checks) {
  std::vector<double> setup_s;
  std::unique_ptr<PatternStore> store;
  std::unique_ptr<PipeServer> server;
  std::vector<std::string> first_window;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();  // the previous set-up's tear-down is not timed
    store.reset();
    std::vector<std::string> window;
    const Clock::time_point start = Clock::now();
    store = fresh_store(workload.kind, gen);
    server = std::make_unique<PipeServer>(
        serve_options(kServeWorkers, store.get()));
    (void)closed_loop(
        *server, [&warmup](std::size_t k) { return warmup.request(k); }, 0,
        kInFlight, 0.0, 0, [&window](std::size_t, std::string response) {
          window.push_back(std::move(response));
        });
    setup_s.push_back(seconds_since(start));
    if (rep == 0) {
      for (std::size_t k = 0; k < window.size(); ++k) {
        check_response(workload.kind, k, window[k], checks);
      }
      first_window = std::move(window);
    } else {
      checks.expect(window == first_window,
                    "the warm-up window answered differently after a new "
                    "set-up");
    }
  }

  std::vector<std::string> prefix;
  std::vector<std::pair<std::size_t, std::string>> simulations;
  const LoopStats loop = closed_loop(
      *server, [&gen](std::size_t k) { return gen.request(k); }, 0,
      min_operations(workload), seconds, workload.window,
      [&](std::size_t k, std::string response) {
        check_response(workload.kind, k, response, checks);
        if (workload.kind == Kind::kSimulate) {
          simulations.emplace_back(k, response);
        }
        if (k < workload.prefix) prefix.push_back(std::move(response));
      });
  server->stop();

  // Verification after timing: the sample recomputed with no store must be
  // byte-identical, and every simulation must sit in Theorem 7's sandwich.
  for (std::size_t k = 0; k < workload.prefix; ++k) {
    if (!in_sample(k)) continue;
    const HandledRequest fresh =
        handle_request(gen.request(k), serve_options(1, nullptr));
    checks.expect(fresh.response == prefix[k],
                  "operation " + std::to_string(k) +
                      " differs when recomputed without the store");
  }
  for (const auto& [k, response] : simulations) {
    if (field(response, "ok") == "true") {
      check_sandwich(gen, k, response, checks);
    }
  }

  Report report;
  report.attempted = kInFlight + loop.completed;
  report.digest = digest(prefix);
  report.metrics = end_to_end_metrics(workload, loop, setup_s);
  return report;
}

std::string search_result_text(const Mapping& mapping, double throughput,
                               std::size_t evaluations) {
  return instance_to_string(mapping) + "throughput " + number_text(throughput) +
         "\nevaluations " + std::to_string(evaluations);
}

std::string search_result_text(const ParallelSearchResult& result) {
  return search_result_text(result.mapping, result.throughput,
                            result.evaluations);
}

/// The portfolio's own check: the returned score is the objective of the
/// returned mapping.
void check_job(std::size_t k, const ParallelSearchResult& result,
               const ParallelSearchOptions& options, Checks& checks) {
  AnalysisContext context;
  const double score = context.objective(result.mapping, options.search);
  checks.expect(score == result.throughput,
                "job " + std::to_string(k) + ": score " +
                    number_text(result.throughput) +
                    " is not the objective of its mapping (" +
                    number_text(score) + ")");
}

/// Set-up (repeated, the median reported): one warm-up job. Then jobs 0,
/// 1, ... back to back, and the verification.
Report run_portfolio(const Workload& workload, const Generator& gen,
                     const Generator& warmup, double seconds, Checks& checks) {
  const std::size_t threads = portfolio_threads();
  const auto options_for = [](const Generator& source, std::size_t k,
                              std::size_t thread_count) {
    ParallelSearchOptions options = source.search(k);
    options.threads = thread_count;
    return options;
  };

  std::vector<double> setup_s;
  std::string first_job;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const Mapping mapping = warmup.mapping(0);
    const ParallelSearchOptions options = options_for(warmup, 0, threads);
    const Clock::time_point start = Clock::now();
    const ParallelSearchResult result =
        parallel_optimize_mapping(mapping.instance(), options);
    setup_s.push_back(seconds_since(start));
    if (rep == 0) {
      check_job(0, result, options, checks);  // the warm-up job
      first_job = search_result_text(result);
    } else {
      checks.expect(search_result_text(result) == first_job,
                    "the warm-up job answered differently after a new set-up");
    }
  }

  std::vector<std::string> prefix;
  LoopStats loop(workload.window);
  const Clock::time_point start = Clock::now();
  loop.begin();
  for (std::size_t k = 0;
       k < min_operations(workload) || seconds_since(start) < seconds; ++k) {
    const Mapping mapping = gen.mapping(k);
    const ParallelSearchOptions options = options_for(gen, k, threads);
    const Clock::time_point job_start = Clock::now();
    const ParallelSearchResult result =
        parallel_optimize_mapping(mapping.instance(), options);
    loop.complete(1e3 * seconds_since(job_start));
    check_job(k, result, options, checks);
    if (k < workload.prefix) prefix.push_back(search_result_text(result));
  }

  // Thread-count invariance: the prefix jobs rerun at one thread.
  for (std::size_t k = 0; k < workload.prefix; ++k) {
    const ParallelSearchResult serial = parallel_optimize_mapping(
        gen.mapping(k).instance(), options_for(gen, k, 1));
    checks.expect(search_result_text(serial) == prefix[k],
                  "job " + std::to_string(k) + " differs at 1 thread");
  }

  Report report;
  report.attempted = 1 + loop.completed;  // with the warm-up job
  report.digest = digest(prefix);
  report.metrics = end_to_end_metrics(workload, loop, setup_s);
  return report;
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// In-memory spans, written once at exit as Chrome trace-event JSON.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    const char* name = "";
    std::size_t op = 0;
    std::size_t parent = kNoParent;
    double start_us = 0.0;
    double end_us = 0.0;
    const char* tag = nullptr;

    double seconds() const { return 1e-6 * (end_us - start_us); }
  };

  std::size_t open(const char* name, std::size_t op) {
    spans_.push_back(
        {name, op, stack_.empty() ? kNoParent : stack_.back(), now_us()});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost open span, which must be `id`.
  void close(std::size_t id, const char* tag = nullptr) {
    SF_ASSERT(!stack_.empty() && stack_.back() == id,
              "spans must close innermost first");
    spans_[id].end_us = now_us();
    spans_[id].tag = tag;
    stack_.pop_back();
  }

  /// Runs fn() inside a span and returns its result.
  template <typename Fn>
  auto time(const char* name, std::size_t op, Fn&& fn) {
    const std::size_t id = open(name, op);
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      close(id);
    } else {
      auto result = fn();
      close(id);
      return result;
    }
  }

  const Span& span(std::size_t id) const { return spans_[id]; }

  /// Summed duration of the spans called `name` (and tagged `tag`, if set).
  double seconds(const char* name, const char* tag = nullptr) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (tag != nullptr && (s.tag == nullptr || std::strcmp(s.tag, tag) != 0))
        continue;
      total += s.seconds();
    }
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw Error("cannot write the trace file '" + path + "'");
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[128];
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                    s.end_us - s.start_us);
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
          << ",\"args\":{\"id\":" << i << ",\"op\":" << s.op;
      if (s.parent != kNoParent) out << ",\"parent\":" << s.parent;
      if (s.tag != nullptr) out << ",\"tag\":\"" << s.tag << "\"";
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Work counts gathered by a traced run (sums over the traced operations).
struct LayerCounts {
  std::size_t patterns = 0;
  std::size_t pattern_solves = 0;
  std::size_t pattern_requests = 0;
  std::size_t young_states_max = 0;
  std::size_t young_states_sum = 0;
  PatternStoreStats store;
  std::size_t markov_states = 0;
  std::size_t markov_edges = 0;
  std::size_t dense_solves = 0;
  std::size_t uniformized_solves = 0;
  std::size_t iterations = 0;
  double residual_max = 0.0;
  std::size_t evaluations = 0;
  std::size_t moves_solved = 0;
  std::size_t moves_pruned_mct = 0;
  std::size_t moves_pruned_maxplus = 0;
  double restart_s_max_sum = 0.0;  ///< sum over jobs of the slowest restart
  double job_wall_s = 0.0;         ///< phase A job walls, summed
  std::size_t replications = 0;
  double computed_draw_s = 0.0;  ///< draws x ns/draw, summed
  double draw_ns_sum = 0.0;      ///< per-operation ns/draw, summed
  double requests_per_batch = 0.0;
  double baseline_s = 0.0;  ///< phase B
  double traced_s = 0.0;    ///< phase C, root spans
};

void add_telemetry(const GeneralMethodResult& solve, LayerCounts& counts) {
  if (solve.backend == StationaryBackend::kDense) {
    ++counts.dense_solves;
  } else {
    ++counts.uniformized_solves;
  }
  counts.iterations += solve.solver_iterations;
  counts.residual_max = std::max(counts.residual_max, solve.solver_residual);
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Every per-layer metric, in BENCHMARK.json's order; zero where the
/// workload never reaches the layer.
std::vector<Metric> layer_metrics(const Tracer& tracer, const LayerCounts& c,
                                  std::size_t ops) {
  const double n = static_cast<double>(ops);
  const auto per_op = [&](const char* span, const char* tag = nullptr) {
    return tracer.seconds(span, tag) / n;
  };
  const auto count = [](std::size_t value) {
    return static_cast<double>(value);
  };
  const double restarts = tracer.seconds("heuristics.run_greedy_restart") +
                          tracer.seconds("heuristics.run_random_restart");
  const double store_lookups = count(c.store.hits + c.store.misses);
  const double pruned = count(c.moves_pruned_mct + c.moves_pruned_maxplus);
  return {
      {"serve.requests_per_batch", c.requests_per_batch, "req/batch"},
      {"serve.handle_s", c.baseline_s / n, "s"},
      {"serve.parse_s", per_op("serve.parse"), "s"},
      {"model.parse_instance_s", per_op("model.instance_from_string"), "s"},
      {"maxplus.deterministic_s",
       per_op("maxplus.deterministic_throughput"), "s"},
      {"tpn.columns_s", per_op("tpn.comm_patterns"), "s"},
      {"tpn.patterns", count(c.patterns), "count"},
      {"analysis_context.exponential_s",
       per_op("analysis_context.exponential"), "s"},
      {"analysis_context.pattern_solves", count(c.pattern_solves), "count"},
      {"analysis_context.pattern_requests", count(c.pattern_requests),
       "count"},
      {"young.pattern_solve_s",
       per_op("analysis_context.pattern_rate", "solve"), "s"},
      {"young.states_max", count(c.young_states_max), "count"},
      {"young.states_sum", count(c.young_states_sum), "count"},
      {"pattern_store.hits", count(c.store.hits), "count"},
      {"pattern_store.misses", count(c.store.misses), "count"},
      {"pattern_store.publishes", count(c.store.publishes), "count"},
      {"pattern_store.hit_ratio", ratio(count(c.store.hits), store_lookups),
       "ratio"},
      {"tpn.build_s", per_op("tpn.build_tpn"), "s"},
      {"markov.reachability_s", per_op("markov.explore_markings"), "s"},
      {"markov.states", count(c.markov_states), "count"},
      {"markov.edges", count(c.markov_edges), "count"},
      {"linalg.stationary_s", per_op("markov.stationary_frequencies"), "s"},
      {"linalg.dense_solves", count(c.dense_solves), "count"},
      {"linalg.uniformized_solves", count(c.uniformized_solves), "count"},
      {"linalg.iterations", count(c.iterations), "count"},
      {"linalg.residual_max", c.residual_max, "l1"},
      {"heuristics.evaluations", count(c.evaluations), "count"},
      {"heuristics.moves_solved", count(c.moves_solved), "count"},
      {"heuristics.moves_pruned_mct", count(c.moves_pruned_mct), "count"},
      {"heuristics.moves_pruned_maxplus", count(c.moves_pruned_maxplus),
       "count"},
      {"heuristics.prune_ratio", ratio(pruned, pruned + count(c.moves_solved)),
       "ratio"},
      {"heuristics.restart_s_sum", restarts / n, "s"},
      {"heuristics.restart_s_max", c.restart_s_max_sum / n, "s"},
      {"parallel_search.amdahl_bound", ratio(restarts, c.restart_s_max_sum),
       "ratio"},
      {"parallel_search.efficiency",
       ratio(restarts,
             static_cast<double>(portfolio_threads()) * c.job_wall_s),
       "ratio"},
      {"sim.replication_s",
       ratio(tracer.seconds("sim.simulate_pipeline"), count(c.replications)),
       "s"},
      {"dist.ns_per_draw", c.draw_ns_sum / n, "ns"},
      {"dist.sampling_share",
       ratio(c.computed_draw_s, tracer.seconds("sim.simulate_pipeline")),
       "ratio"},
      {"trace_overhead", ratio(c.traced_s - c.baseline_s, c.baseline_s),
       "ratio"},
  };
}

/// Compares a decomposed value with the response field it must equal.
void expect_field(const std::string& response, const char* key,
                  const std::string& value, std::size_t k, Checks& checks) {
  checks.expect(field(response, key) == value,
                "operation " + std::to_string(k) + ": decomposed " + key +
                    " " + value + " != response " + field(response, key));
}

/// Phase C for one analyze request: the calls handle_request makes, one
/// span each. Heterogeneous patterns the context had to solve are appended
/// to `solved` for the attribution replay.
void replay_analyze(std::size_t k, const std::string& line,
                    const std::string& expected, PatternStore* store,
                    Tracer& tracer, LayerCounts& counts,
                    std::vector<CommPattern>& solved, Checks& checks) {
  const std::size_t root = tracer.open("op.analyze", k);
  std::string text;
  bool strict = false;
  tracer.time("serve.parse", k, [&] {
    FlatRequest request = FlatRequest::parse(line);
    (void)request.take_id();
    (void)request.take_string("op");
    text = request.take_string("instance");
    strict = request.take_string_or("model", "overlap") == "strict";
    request.expect_exhausted();
  });
  const ExecutionModel model =
      strict ? ExecutionModel::kStrict : ExecutionModel::kOverlap;
  const Mapping mapping =
      tracer.time("model.instance_from_string", k,
                  [&] { return instance_from_string(text); });
  const DeterministicThroughput det =
      tracer.time("maxplus.deterministic_throughput", k,
                  [&] { return deterministic_throughput(mapping, model); });

  double exponential = 0.0;
  double exp_in_order = 0.0;
  std::size_t pattern_requests = 0;
  // Strict runs Theorem 2's general CTMC; its telemetry is read after the
  // operation, outside the overhead figure.
  std::optional<TimedEventGraph> strict_graph;
  std::vector<double> strict_rates;
  GeneralMethodOptions method;
  if (!strict) {
    AnalysisContext context;
    context.set_pattern_store(store);
    for (std::size_t file = 0; file + 1 < mapping.num_stages(); ++file) {
      const std::vector<CommPattern> patterns = tracer.time(
          "tpn.comm_patterns", k, [&] { return comm_patterns(mapping, file); });
      counts.patterns += patterns.size();
      for (const CommPattern& pattern : patterns) {
        const AnalysisCacheStats before = context.stats();
        const std::size_t id = tracer.open("analysis_context.pattern_rate", k);
        (void)context.pattern_rate(pattern);
        const AnalysisCacheStats& after = context.stats();
        const char* tag = "closed-form";
        if (after.pattern_misses > before.pattern_misses) {
          tag = "solve";
          ++counts.pattern_solves;
          solved.push_back(pattern);
        } else if (after.pattern_hits > before.pattern_hits) {
          tag = "hit";
        }
        tracer.close(id, tag);
        if (std::strcmp(tag, "closed-form") != 0) ++counts.pattern_requests;
      }
    }
    const AnalysisCacheStats before = context.stats();
    const ExponentialThroughput exp =
        tracer.time("analysis_context.exponential", k,
                    [&] { return context.exponential(mapping, model); });
    const AnalysisCacheStats& after = context.stats();
    exponential = exp.throughput;
    exp_in_order = exp.in_order_throughput;
    pattern_requests = (after.pattern_hits + after.pattern_misses) -
                       (before.pattern_hits + before.pattern_misses);
  } else {
    const ExponentialOptions defaults;
    TpnBuildOptions build;
    build.max_rows = defaults.max_rows;
    method.reachability.max_states = defaults.max_states;
    method.reachability.place_capacity = defaults.place_capacity;
    strict_graph = tracer.time("tpn.build_tpn", k, [&] {
      return build_tpn(mapping, model, build);
    });
    const TimedEventGraph& graph = *strict_graph;
    strict_rates = tracer.time("markov.rates_from_durations", k,
                               [&] { return rates_from_durations(graph); });
    const TpnMarkovChain chain = tracer.time("markov.explore_markings", k, [&] {
      return explore_markings(graph, strict_rates, method.reachability);
    });
    const std::vector<double> freq =
        tracer.time("markov.stationary_frequencies", k, [&] {
          return stationary_frequencies(graph, chain, strict_rates, method);
        });
    counts.markov_states += chain.num_states;
    counts.markov_edges += chain.edges.size();
    double min_row = std::numeric_limits<double>::infinity();
    for (const std::size_t t : graph.last_column_transitions()) {
      exponential += freq[t];
      min_row = std::min(min_row, freq[t]);
    }
    exp_in_order = min_row * static_cast<double>(mapping.num_paths());
  }
  tracer.close(root);

  expect_field(expected, "deterministic", number_text(det.throughput), k,
               checks);
  expect_field(expected, "exponential", number_text(exponential), k, checks);
  expect_field(expected, "exp_in_order", number_text(exp_in_order), k, checks);
  if (!strict) {
    expect_field(expected, "pattern_requests",
                 std::to_string(pattern_requests), k, checks);
  } else {
    const std::size_t id = tracer.open("attribution.solver_telemetry", k);
    add_telemetry(exponential_throughput_general(
                      *strict_graph, strict_rates,
                      strict_graph->last_column_transitions(), method),
                  counts);
    tracer.close(id);
  }
}

/// Phase C for one simulate request: run_replicated_pipeline's replications,
/// one span each, on StreamFactory substream r.
void replay_simulate(std::size_t k, const std::string& line,
                     const std::string& expected, Tracer& tracer,
                     LayerCounts& counts, Checks& checks) {
  const std::size_t root = tracer.open("op.simulate", k);
  std::string text;
  std::string law_spec;
  PipelineSimOptions sim;
  std::uint64_t replications = 1;
  tracer.time("serve.parse", k, [&] {
    FlatRequest request = FlatRequest::parse(line);
    (void)request.take_id();
    (void)request.take_string("op");
    text = request.take_string("instance");
    law_spec = request.take_string("law");
    sim.data_sets =
        static_cast<std::int64_t>(request.take_u64_or("data_sets", 0));
    sim.seed = request.take_u64_or("seed", 0);
    replications = request.take_u64_or("replications", 1);
    request.expect_exhausted();
  });
  const Mapping mapping =
      tracer.time("model.instance_from_string", k,
                  [&] { return instance_from_string(text); });
  const DistributionPtr law =
      tracer.time("dist.parse_distribution", k,
                  [&] { return parse_distribution(law_spec); });
  const StochasticTiming timing =
      tracer.time("model.StochasticTiming::scaled", k,
                  [&] { return StochasticTiming::scaled(mapping, *law); });
  StreamFactory factory(sim.seed);
  RunningStats throughput;
  RunningStats in_order;
  for (std::uint64_t r = 0; r < replications; ++r) {
    Prng stream = factory.stream(r);
    const PipelineSimResult result =
        tracer.time("sim.simulate_pipeline", k, [&] {
          return simulate_pipeline(mapping, ExecutionModel::kOverlap, timing,
                                   stream, sim);
        });
    throughput.add(result.throughput);
    in_order.add(result.in_order_throughput);
  }
  tracer.close(root);
  counts.replications += replications;
  expect_field(expected, "throughput", number_text(throughput.mean()), k,
               checks);
  expect_field(expected, "ci95", number_text(throughput.ci95_halfwidth()), k,
               checks);
  expect_field(expected, "in_order", number_text(in_order.mean()), k, checks);
}

/// Phase D for simulate: the cost of one variate of `spec` rescaled to mean
/// 1, drawn through a BatchSampler as the simulator draws compute times.
double ns_per_draw(const char* spec, std::size_t streams, Tracer& tracer) {
  constexpr std::size_t kDraws = std::size_t{1} << 21;
  BatchSampler sampler(parse_distribution(spec)->with_mean(1.0), Prng(1),
                       simd::Isa::kAuto,
                       pick_block_draws(streams, kSimDataSets));
  double sink = 0.0;
  const std::size_t id = tracer.open("attribution.dist_draws", 0);
  for (std::size_t i = 0; i < kDraws; ++i) sink += sampler.next();
  tracer.close(id, spec);
  SF_ASSERT(sink > 0.0, "sampler drew nothing");
  return 1e9 * tracer.span(id).seconds() / static_cast<double>(kDraws);
}

Report trace_serve(const Workload& workload, const Generator& gen,
                   Tracer& tracer, LayerCounts& counts, Checks& checks) {
  const std::size_t n = workload.prefix;
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < n; ++k) lines.push_back(gen.request(k));

  // Phase A: the untraced closed loop.
  std::vector<std::string> responses;
  {
    std::unique_ptr<PatternStore> store = fresh_store(workload.kind, gen);
    PipeServer server(serve_options(kServeWorkers, store.get()));
    (void)closed_loop(
        server, [&lines](std::size_t k) { return lines[k]; }, 0, n, 0.0, 0,
        [&](std::size_t k, std::string response) {
          check_response(workload.kind, k, response, checks);
          responses.push_back(std::move(response));
        });
    const ServeResult served = server.stop();
    // The shutdown request travels alone in the last batch.
    counts.requests_per_batch =
        ratio(static_cast<double>(served.requests - 1),
              static_cast<double>(served.batches - 1));
  }

  // Phase B: the serial baseline through handle_request.
  {
    std::unique_ptr<PatternStore> store = fresh_store(workload.kind, gen);
    const ServeOptions options = serve_options(1, store.get());
    const Clock::time_point start = Clock::now();
    std::vector<std::string> serial;
    for (const std::string& line : lines) {
      serial.push_back(handle_request(line, options).response);
    }
    counts.baseline_s = seconds_since(start);
    for (std::size_t k = 0; k < n; ++k) {
      checks.expect(serial[k] == responses[k],
                    "operation " + std::to_string(k) +
                        ": serial response differs from the served one");
    }
  }

  // Phase C: the decomposed replay.
  std::vector<CommPattern> solved;
  std::unique_ptr<PatternStore> store = fresh_store(workload.kind, gen);
  const PatternStoreStats warm = store->stats();
  for (std::size_t k = 0; k < n; ++k) {
    if (workload.kind == Kind::kSimulate) {
      replay_simulate(k, lines[k], responses[k], tracer, counts, checks);
    } else {
      replay_analyze(k, lines[k], responses[k], store.get(), tracer, counts,
                     solved, checks);
    }
  }
  counts.traced_s =
      tracer.seconds("op.analyze") + tracer.seconds("op.simulate");
  const PatternStoreStats after = store->stats();
  counts.store.hits = after.hits - warm.hits;
  counts.store.misses = after.misses - warm.misses;
  counts.store.publishes = after.publishes - warm.publishes;

  // Phase D: attribution replays of the solved patterns (markov and linalg
  // split, solver telemetry) and the sampler's cost per draw.
  const ExponentialOptions defaults;
  GeneralMethodOptions method;
  method.reachability.max_states = defaults.max_states;
  for (std::size_t i = 0; i < solved.size(); ++i) {
    const std::size_t root = tracer.open("attribution.pattern", i);
    const TimedEventGraph teg = build_pattern_teg(solved[i]);
    const std::vector<double> rates = rates_from_durations(teg);
    const TpnMarkovChain chain = tracer.time("markov.explore_markings", i, [&] {
      return explore_markings(teg, rates, method.reachability);
    });
    (void)tracer.time("markov.stationary_frequencies", i, [&] {
      return stationary_frequencies(teg, chain, rates, method);
    });
    const GeneralMethodResult telemetry =
        tracer.time("attribution.solver_telemetry", i,
                    [&] { return saturated_flow(teg, rates, method); });
    add_telemetry(telemetry, counts);
    tracer.close(root);
    counts.markov_states += chain.num_states;
    counts.markov_edges += chain.edges.size();
    counts.young_states_sum += chain.num_states;
    counts.young_states_max =
        std::max(counts.young_states_max, chain.num_states);
  }
  if (workload.kind == Kind::kSimulate) {
    double law_ns[3] = {0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < n; ++k) {
      const Mapping mapping = gen.mapping(k);
      std::size_t streams = mapping.num_stages() - 1;
      for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
        streams += mapping.replication(i);
      }
      double& ns = law_ns[k % 3];
      if (ns == 0.0) ns = ns_per_draw(gen.law(k), streams, tracer);
      const double draws = static_cast<double>(kSimReplications * kSimDataSets *
                                               (2 * mapping.num_stages() - 1));
      counts.draw_ns_sum += ns;
      counts.computed_draw_s += 1e-9 * draws * ns;
    }
  }

  Report report;
  report.attempted = n;
  report.digest = digest(responses);
  return report;
}

Report trace_portfolio(const Workload& workload, const Generator& gen,
                       Tracer& tracer, LayerCounts& counts, Checks& checks) {
  const std::size_t n = workload.prefix;
  const std::size_t threads = portfolio_threads();
  std::vector<Mapping> mappings;
  for (std::size_t k = 0; k < n; ++k) mappings.push_back(gen.mapping(k));

  // Phase A: the portfolio as the untraced run drives it.
  std::vector<std::string> results;
  for (std::size_t k = 0; k < n; ++k) {
    ParallelSearchOptions options = gen.search(k);
    options.threads = threads;
    const Clock::time_point start = Clock::now();
    const ParallelSearchResult result =
        parallel_optimize_mapping(mappings[k].instance(), options);
    counts.job_wall_s += seconds_since(start);
    check_job(k, result, options, checks);
    results.push_back(search_result_text(result));
  }

  // Phase B: the same jobs at one thread, the serial baseline.
  {
    const Clock::time_point start = Clock::now();
    std::vector<std::string> serial;
    for (std::size_t k = 0; k < n; ++k) {
      ParallelSearchOptions options = gen.search(k);
      options.threads = 1;
      serial.push_back(search_result_text(
          parallel_optimize_mapping(mappings[k].instance(), options)));
    }
    counts.baseline_s = seconds_since(start);
    for (std::size_t k = 0; k < n; ++k) {
      checks.expect(serial[k] == results[k],
                    "job " + std::to_string(k) + " differs at 1 thread");
    }
  }

  // Phase C: each job as its restarts — starts drawn serially from
  // Prng(seed) (the default sequential seeding), restart 0 greedy, every
  // restart on a fresh context, reduced in restart order.
  for (std::size_t k = 0; k < n; ++k) {
    const InstancePtr& instance = mappings[k].instance();
    const MappingSearchOptions options = gen.search(k).search;
    const std::size_t root = tracer.open("op.search", k);
    Prng draws(options.seed);
    std::vector<StageAssignment> starts;
    for (std::size_t r = 1; r < options.restarts; ++r) {
      starts.push_back(
          tracer.time("heuristics.draw_restart_assignment", k, [&] {
            return draw_restart_assignment(instance->application,
                                           instance->platform, draws);
          }));
    }
    std::vector<RestartResult> rows;
    double slowest = 0.0;
    for (std::size_t r = 0; r < options.restarts; ++r) {
      AnalysisContext context;
      const std::size_t id = tracer.open(
          r == 0 ? "heuristics.run_greedy_restart"
                 : "heuristics.run_random_restart",
          k);
      rows.push_back(r == 0 ? run_greedy_restart(instance, options, context)
                            : run_random_restart(instance, starts[r - 1],
                                                 options, context));
      tracer.close(id);
      slowest = std::max(slowest, tracer.span(id).seconds());
    }
    std::size_t best = 0;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].feasible && rows[r].score > rows[best].score) best = r;
    }
    const std::optional<Mapping> mapping =
        tracer.time("heuristics.realize_assignment", k, [&] {
          return realize_assignment(instance, rows[best].assignment,
                                    options.max_paths);
        });
    tracer.close(root);
    counts.restart_s_max_sum += slowest;
    if (!mapping.has_value()) {
      checks.expect(false, "job " + std::to_string(k) +
                               ": the best restart is infeasible");
      continue;
    }

    std::size_t evaluations = 0;
    for (const RestartResult& row : rows) {
      evaluations += row.evaluations;
      counts.evaluations += row.evaluations;
      counts.moves_solved += row.moves_solved;
      counts.moves_pruned_mct += row.moves_pruned_mct;
      counts.moves_pruned_maxplus += row.moves_pruned_maxplus;
    }
    checks.expect(search_result_text(*mapping, rows[best].score,
                                     evaluations) == results[k],
                  "job " + std::to_string(k) +
                      ": decomposed restarts differ from the portfolio");
  }
  counts.traced_s = tracer.seconds("op.search");

  Report report;
  report.attempted = n;
  report.digest = digest(results);
  return report;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

int usage(const char* problem) {
  std::cerr << "error: " << problem << "\n"
            << "usage: bench_e2e --workload NAME --seed S [--seconds N] "
               "[--trace 0|1] [--trace-out FILE]\n  workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

void print_result(const Report& report, std::size_t failed) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number_text(value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << json << "}}" << std::endl;
}

int run(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) {
        return usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        return usage("--seed takes an integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == nullptr || !have_seed) {
    return usage("--workload and --seed are required");
  }

  const Generator gen(*workload, seed);
  Checks checks;
  Report report;
  if (!trace) {
    const Generator warmup(*workload, kWarmupSeed);
    report = workload->kind == Kind::kPortfolio
                 ? run_portfolio(*workload, gen, warmup, seconds, checks)
                 : run_serve(*workload, gen, warmup, seconds, checks);
  } else {
    Tracer tracer;
    LayerCounts counts;
    report = workload->kind == Kind::kPortfolio
                 ? trace_portfolio(*workload, gen, tracer, counts, checks)
                 : trace_serve(*workload, gen, tracer, counts, checks);
    report.metrics = layer_metrics(tracer, counts, workload->prefix);
    if (!trace_out.empty()) tracer.write(trace_out);
  }

  std::printf(
      "# info {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"nproc\": %zu, \"refill_isa\": \"%s\", "
      "\"tail\": \"%s\", \"prefix_ops\": %zu, \"digest\": \"%016" PRIx64
      "\"}\n",
      workload->name, seed, trace ? 1 : 0, hardware_threads(),
      simd::isa_name(simd::best_isa()), workload->tail_label, workload->prefix,
      report.digest);
  std::fflush(stdout);
  print_result(report, checks.failed());
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace streamflow::e2e

int main(int argc, char** argv) {
  // A serve loop that dies must surface as EOF/EPIPE, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return streamflow::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
