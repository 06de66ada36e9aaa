// Serve-mode load generator: requests/sec and latency percentiles for
// `streamflow serve`, cold pattern store versus warm.
//
// The generator runs a real serve loop (serve/server.hpp) on its own thread
// behind a pair of POSIX pipes — the exact transport CI and the socket mode
// use, FdStreamBuf included — and drives it with analyze requests over a
// pool of heterogeneous instances whose communication patterns force CTMC
// pattern solves (the serving cost the shared store amortizes).
//
// Two long-lived servers answer the SAME request streams:
//   cold — ServeOptions::store == nullptr: every request re-solves its
//          patterns in a private context (the pre-store baseline);
//   warm — a shared PatternStore pre-warmed with every pattern the stream
//          needs: requests are answered from store hits.
// Each server has a latency phase (serial round-trips -> p50/p95/p99).
// The throughput phase then alternates pipelined passes (fixed window ->
// requests/sec) over the same stream, cold then warm, for several pairs, so
// host noise lands on both sides of every pair instead of deciding one
// cold pass against one warm pass.
//
// Shape checks: every warm response must be BYTE-IDENTICAL to the cold
// response to the same request (the determinism contract of
// serve/server.hpp — the store may only change speed, never bytes), and the
// median over the pairs of warm/cold throughput must be >= 1.5x (the win
// the store exists for).
//
//   ./build/bench_serve_load [--csv] [--quick] [--json PATH]
#include <unistd.h>

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/analysis_context.hpp"
#include "core/pattern_store.hpp"
#include "model/mapping.hpp"
#include "model/serialization.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace streamflow::bench {
namespace {

/// Instance pool: five-stage applications on a 15-processor platform with
/// pairwise-distinct link bandwidths, mapped onto teams of coprime sizes so
/// every cross-team pattern is heterogeneous (u x v up to 4 x 5 — a CTMC a
/// cold context spends milliseconds on, which is what the store amortizes).
/// `variant` perturbs speeds and bandwidths so the pool shares no pattern
/// signatures across variants — the warm store must hold the union.
Mapping pool_instance(std::size_t variant) {
  Application application({2.0, 5.0, 7.0, 4.0, 1.0}, {1.0, 2.0, 3.0, 1.0});
  std::vector<double> speeds(15);
  for (std::size_t p = 0; p < speeds.size(); ++p) {
    speeds[p] = 1.0 + 0.125 * static_cast<double>((p + variant) % 8);
  }
  Platform platform{std::move(speeds)};
  double bandwidth = 0.5 + 0.03125 * static_cast<double>(variant);
  for (std::size_t p = 0; p < 15; ++p) {
    for (std::size_t q = p + 1; q < 15; ++q) {
      platform.set_bandwidth(p, q, bandwidth);
      bandwidth += 0.0625;
    }
  }
  return Mapping(make_instance(application, platform),
                 {{0},
                  {1, 2, 3, 4},
                  {5, 6, 7, 8, 9},
                  {10, 11, 12, 13},
                  {14}});
}

struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Percentiles percentiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&samples](double q) {
    const std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
    if (rank >= n) rank = n - 1;
    return samples[rank];
  };
  return {at(0.50), at(0.95), at(0.99)};
}

struct RunResult {
  std::vector<double> rps;    ///< each throughput pass, requests/sec
  Percentiles latency_ms;     ///< latency phase, per-round-trip
  std::vector<std::string> responses;  ///< every response line, in order
};

/// One serve loop on its own thread behind a pipe pair.
class ServerUnderTest {
 public:
  explicit ServerUnderTest(const ServeOptions& options) {
    SF_REQUIRE(pipe(to_server_) == 0, "pipe(to_server) failed");
    SF_REQUIRE(pipe(from_server_) == 0, "pipe(from_server) failed");
    server_ = std::thread([this, options] {
      FdStreamBuf in_buf(to_server_[0]);
      FdStreamBuf out_buf(from_server_[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      run_serve_loop(in, out, options);
    });
    request_buf_ = new FdStreamBuf(to_server_[1]);
    response_buf_ = new FdStreamBuf(from_server_[0]);
    requests_ = new std::ostream(request_buf_);
    responses_ = new std::istream(response_buf_);
  }

  ~ServerUnderTest() {
    *requests_ << "{\"op\":\"shutdown\"}\n" << std::flush;
    // Exactly one response is pending (the shutdown ack): the loop stops on
    // shutdown, not on EOF — and EOF never comes anyway, since this process
    // holds the response pipe's write end until the cleanup below.
    std::string drained;
    std::getline(*responses_, drained);
    server_.join();
    delete requests_;
    delete responses_;
    delete request_buf_;
    delete response_buf_;
    close(to_server_[0]);
    close(to_server_[1]);
    close(from_server_[0]);
    close(from_server_[1]);
  }

  /// Serial round trip; returns the response line.
  std::string round_trip(const std::string& line) {
    *requests_ << line << "\n" << std::flush;
    std::string response;
    SF_REQUIRE(static_cast<bool>(std::getline(*responses_, response)),
               "server closed the response stream mid-run");
    return response;
  }

  std::ostream& request_stream() { return *requests_; }
  std::istream& response_stream() { return *responses_; }

 private:
  int to_server_[2];
  int from_server_[2];
  std::thread server_;
  FdStreamBuf* request_buf_ = nullptr;
  FdStreamBuf* response_buf_ = nullptr;
  std::ostream* requests_ = nullptr;
  std::istream* responses_ = nullptr;
};

/// Serial round trips over `stream`: the latency percentiles, responses
/// appended to `responses`.
Percentiles latency_phase(ServerUnderTest& server,
                          const std::vector<std::string>& stream,
                          std::vector<std::string>& responses) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(stream.size());
  for (const std::string& line : stream) {
    Stopwatch watch;
    responses.push_back(server.round_trip(line));
    latencies_ms.push_back(watch.seconds() * 1e3);
  }
  return percentiles(std::move(latencies_ms));
}

/// One pipelined pass over `stream`, keeping `kWindow` requests in flight
/// (well under the pipe buffer, so writes never deadlock against unread
/// responses): requests/sec, responses appended to `responses`.
double throughput_pass(ServerUnderTest& server,
                       const std::vector<std::string>& stream,
                       std::vector<std::string>& responses) {
  const std::size_t kWindow = 8;
  Stopwatch watch;
  std::size_t sent = 0;
  std::size_t received = 0;
  std::ostream& out = server.request_stream();
  std::istream& in = server.response_stream();
  while (received < stream.size()) {
    while (sent < stream.size() && sent - received < kWindow) {
      out << stream[sent] << "\n";
      ++sent;
    }
    out.flush();
    std::string response;
    SF_REQUIRE(static_cast<bool>(std::getline(in, response)),
               "server closed the response stream mid-run");
    responses.push_back(std::move(response));
    ++received;
  }
  return static_cast<double>(stream.size()) / watch.seconds();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::size_t kVariants = 4;
  const std::size_t latency_requests = args.quick ? 12 : 48;
  const std::size_t throughput_requests = args.quick ? 48 : 240;
  const std::size_t pairs = args.quick ? 7 : 9;

  // Request pool: analyze over the instance variants, round-robin. Ids are
  // positional so the cold and warm streams are byte-identical inputs.
  std::vector<std::string> instances;
  std::vector<Mapping> mappings;
  for (std::size_t v = 0; v < kVariants; ++v) {
    mappings.push_back(pool_instance(v));
    instances.push_back(json_escape(instance_to_string(mappings.back())));
  }
  const auto request_line = [&instances](std::size_t id) {
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"analyze\",\"instance\":\"" +
           instances[id % instances.size()] + "\"}";
  };
  std::vector<std::string> latency_stream;
  for (std::size_t k = 0; k < latency_requests; ++k) {
    latency_stream.push_back(request_line(k));
  }
  std::vector<std::string> throughput_stream;
  for (std::size_t k = 0; k < throughput_requests; ++k) {
    throughput_stream.push_back(request_line(latency_requests + k));
  }

  // Warm: a shared store pre-loaded with every pattern the stream needs.
  PatternStore store;
  for (const Mapping& mapping : mappings) {
    AnalysisContext context;
    context.set_pattern_store(&store);
    (void)context.exponential(mapping, ExecutionModel::kOverlap);
  }
  // Cold: no store — every request re-solves its patterns privately.
  ServeOptions cold_options;
  cold_options.threads = 2;
  ServeOptions warm_options = cold_options;
  warm_options.store = &store;

  RunResult cold;
  RunResult warm;
  std::vector<double> ratios;
  {
    ServerUnderTest cold_server(cold_options);
    ServerUnderTest warm_server(warm_options);
    cold.latency_ms = latency_phase(cold_server, latency_stream, cold.responses);
    warm.latency_ms = latency_phase(warm_server, latency_stream, warm.responses);
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      cold.rps.push_back(
          throughput_pass(cold_server, throughput_stream, cold.responses));
      warm.rps.push_back(
          throughput_pass(warm_server, throughput_stream, warm.responses));
      ratios.push_back(warm.rps.back() / cold.rps.back());
    }
  }

  Table pair_table({"pair", "cold req/s", "warm req/s", "warm/cold"});
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    pair_table.add_row({static_cast<std::int64_t>(pair), cold.rps[pair],
                        warm.rps[pair], ratios[pair]});
  }
  emit(pair_table,
       "serve load: " + std::to_string(pairs) +
           " alternating cold/warm throughput passes of " +
           std::to_string(throughput_requests) + " requests",
       args);

  const double cold_rps = median(cold.rps);
  const double warm_rps = median(warm.rps);
  Table table({"run", "store entries", "median req/s", "p50 ms", "p95 ms",
               "p99 ms"});
  table.add_row({std::string("cold"), std::int64_t{0}, cold_rps,
                 cold.latency_ms.p50, cold.latency_ms.p95,
                 cold.latency_ms.p99});
  table.add_row({std::string("warm"),
                 static_cast<std::int64_t>(store.stats().entries), warm_rps,
                 warm.latency_ms.p50, warm.latency_ms.p95,
                 warm.latency_ms.p99});
  emit(table, "serve load: " +
                  std::to_string(latency_requests +
                                 pairs * throughput_requests) +
                  " analyze requests per server over " +
                  std::to_string(kVariants) + " instances, pipeline window 8",
       args);

  const bool identical = cold.responses == warm.responses;
  const double speedup = median(ratios);
  shape_check(identical,
              "warm-store responses byte-identical to the cold baseline (" +
                  std::to_string(cold.responses.size()) + " responses)");
  {
    std::ostringstream message;
    message.precision(3);
    message << "warm store throughput over cold: median x" << speedup
            << " over " << pairs << " pairs (want >= 1.5)";
    shape_check(speedup >= 1.5, message.str());
  }

  std::vector<std::string> pair_json;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    pair_json.push_back(JsonWriter()
                            .number_field("cold_rps", cold.rps[pair])
                            .number_field("warm_rps", warm.rps[pair])
                            .number_field("ratio", ratios[pair])
                            .str());
  }
  JsonWriter cold_json;
  cold_json.number_field("rps", cold_rps)
      .number_field("p50_ms", cold.latency_ms.p50)
      .number_field("p95_ms", cold.latency_ms.p95)
      .number_field("p99_ms", cold.latency_ms.p99);
  JsonWriter warm_json;
  warm_json.number_field("rps", warm_rps)
      .number_field("p50_ms", warm.latency_ms.p50)
      .number_field("p95_ms", warm.latency_ms.p95)
      .number_field("p99_ms", warm.latency_ms.p99);
  JsonWriter summary;
  summary.string_field("bench", "serve_load")
      .integer_field("requests", latency_requests + pairs * throughput_requests)
      .integer_field("instances", kVariants)
      .integer_field("store_entries", store.stats().entries)
      .raw_field("cold", cold_json.str())
      .raw_field("warm", warm_json.str())
      .array_field("pairs", pair_json)
      .number_field("speedup", speedup)
      .bool_field("identical_responses", identical);
  write_json(args, summary);
  return identical && speedup >= 1.5 ? 0 : 1;
}

}  // namespace
}  // namespace streamflow::bench

int main(int argc, char** argv) { return streamflow::bench::run(argc, argv); }
