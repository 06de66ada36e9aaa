#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/analysis_context.hpp"
#include "core/heuristics.hpp"
#include "core/pattern_store.hpp"
#include "dist/distribution.hpp"
#include "engine/parallel_search.hpp"
#include "engine/sim_replication.hpp"
#include "engine/thread_pool.hpp"
#include "maxplus/deterministic.hpp"
#include "model/serialization.hpp"
#include "model/timing.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "sim/pipeline_sim.hpp"

namespace streamflow {

namespace {

ExecutionModel parse_model(const std::string& text) {
  if (text == "overlap") return ExecutionModel::kOverlap;
  if (text == "strict") return ExecutionModel::kStrict;
  throw InvalidArgument("field \"model\" must be \"overlap\" or \"strict\" "
                        "(got '" + text + "')");
}

JsonWriter handle_ping(FlatRequest& request) {
  request.expect_exhausted();
  JsonWriter result;
  result.bool_field("pong", true);
  return result;
}

JsonWriter handle_stats(FlatRequest& request, const ServeOptions& options) {
  request.expect_exhausted();
  JsonWriter result;
  if (options.store == nullptr) {
    result.bool_field("store", false);
    return result;
  }
  const PatternStoreStats stats = options.store->stats();
  result.bool_field("store", true);
  result.integer_field("entries", stats.entries);
  result.integer_field("hits", stats.hits);
  result.integer_field("misses", stats.misses);
  result.integer_field("publishes", stats.publishes);
  result.integer_field("duplicates", stats.duplicates);
  return result;
}

JsonWriter handle_analyze(FlatRequest& request, const ServeOptions& options) {
  const Mapping mapping = instance_from_string(request.take_string("instance"));
  const ExecutionModel model =
      parse_model(request.take_string_or("model", "overlap"));
  request.expect_exhausted();

  const DeterministicThroughput det = deterministic_throughput(mapping, model);
  AnalysisContext context;
  context.set_pattern_store(options.store);
  const ExponentialThroughput exp = context.exponential(mapping, model);
  const AnalysisCacheStats& stats = context.stats();

  JsonWriter result;
  result.number_field("deterministic", det.throughput);
  result.number_field("in_order", det.in_order_throughput);
  result.number_field("critical_resource", det.critical_resource_throughput);
  result.bool_field("critical_resource_attained",
                    det.critical_resource_attained);
  result.number_field("exponential", exp.throughput);
  result.number_field("exp_in_order", exp.in_order_throughput);
  result.string_field("method", exp.method_used == ExponentialMethod::kColumns
                                    ? "columns"
                                    : "ctmc");
  // hits + misses is the cache-state-invariant total (the warmth-dependent
  // hit/miss SPLIT is deliberately not exposed — response bytes must not
  // depend on store warmth).
  result.integer_field("pattern_requests",
                       stats.pattern_hits + stats.pattern_misses);
  return result;
}

JsonWriter handle_search(FlatRequest& request, const ServeOptions& options) {
  const Mapping mapping = instance_from_string(request.take_string("instance"));
  MappingSearchOptions search;
  search.model = parse_model(request.take_string_or("model", "overlap"));
  const std::string objective = request.take_string_or(
      "objective", search.model == ExecutionModel::kStrict ? "det" : "exp");
  if (objective == "det") {
    search.objective = MappingObjective::kDeterministic;
  } else if (objective == "exp") {
    search.objective = MappingObjective::kExponential;
  } else {
    throw InvalidArgument("field \"objective\" must be \"exp\" or \"det\" "
                          "(got '" + objective + "')");
  }
  search.restarts = request.take_u64_or("restarts", search.restarts);
  search.seed = request.take_u64_or("seed", search.seed);
  const std::uint64_t max_paths = request.take_u64_or(
      "max_paths", static_cast<std::uint64_t>(search.max_paths));
  if (max_paths > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max())) {
    throw InvalidArgument("field \"max_paths\" must be at most " +
                          std::to_string(
                              std::numeric_limits<std::int64_t>::max()) +
                          " (got " + std::to_string(max_paths) + ")");
  }
  search.max_paths = static_cast<std::int64_t>(max_paths);
  const std::string prune = request.take_string_or("prune", "none");
  if (prune == "mct") {
    search.bounds = BoundPolicy::kMct;
  } else if (prune == "maxplus") {
    search.bounds = BoundPolicy::kMctMaxplus;
  } else if (prune != "none") {
    throw InvalidArgument("field \"prune\" must be \"none\", \"mct\", or "
                          "\"maxplus\" (got '" + prune + "')");
  }
  request.expect_exhausted();

  // Serve parallelism is across requests: one search runs on the worker
  // that handles it. The result is thread-count invariant anyway.
  ParallelSearchOptions portfolio;
  portfolio.search = search;
  portfolio.threads = 1;
  portfolio.pattern_store = options.store;
  const ParallelSearchResult best =
      parallel_optimize_mapping(mapping.instance(), portfolio);

  JsonWriter result;
  result.string_field("instance", instance_to_string(best.mapping));
  result.number_field("throughput", best.throughput);
  result.integer_field("evaluations", best.evaluations);
  result.integer_field("pattern_requests", best.pattern_requests);
  return result;
}

JsonWriter handle_simulate(FlatRequest& request) {
  const Mapping mapping = instance_from_string(request.take_string("instance"));
  const ExecutionModel model =
      parse_model(request.take_string_or("model", "overlap"));
  const std::string law_spec = request.take_string_or("law", "exp:1");
  PipelineSimOptions sim;
  sim.data_sets = request.take_u64_or("data_sets", sim.data_sets);
  sim.seed = request.take_u64_or("seed", sim.seed);
  const std::uint64_t replications = request.take_u64_or("replications", 1);
  request.expect_exhausted();

  const DistributionPtr law = parse_distribution(law_spec);
  const StochasticTiming timing = StochasticTiming::scaled(mapping, *law);

  JsonWriter result;
  if (replications <= 1) {
    const PipelineSimResult r = simulate_pipeline(mapping, model, timing, sim);
    result.number_field("throughput", r.throughput);
    result.number_field("in_order", r.in_order_throughput);
    result.number_field("mean_latency", r.mean_latency);
    result.integer_field("completed", static_cast<std::uint64_t>(r.completed));
    return result;
  }
  ExperimentOptions experiment;
  experiment.replications = replications;
  // Serve parallelism is across requests; one request never nests a pool.
  // Replicated results are thread-count invariant anyway, so this is a
  // scheduling choice, not a determinism requirement.
  experiment.threads = 1;
  experiment.seed = sim.seed;
  const ReplicatedResult r =
      run_replicated_pipeline(mapping, model, timing, sim, experiment);
  result.number_field("throughput", r.metric("throughput").mean);
  result.number_field("ci95", r.metric("throughput").ci95_halfwidth);
  result.number_field("in_order", r.metric("in_order_throughput").mean);
  result.number_field("mean_latency", r.metric("mean_latency").mean);
  result.integer_field("replications", r.replications);
  return result;
}

std::string wrap_ok(const std::string& id_json, const JsonWriter& result) {
  JsonWriter response;
  if (!id_json.empty()) response.raw_field("id", id_json);
  response.bool_field("ok", true);
  response.raw_field("result", result.str());
  return response.str();
}

std::string wrap_error(const std::string& id_json, const std::string& what) {
  JsonWriter response;
  if (!id_json.empty()) response.raw_field("id", id_json);
  response.bool_field("ok", false);
  response.string_field("error", what);
  return response.str();
}

}  // namespace

HandledRequest handle_request(const std::string& line,
                              const ServeOptions& options) {
  std::string id_json;
  try {
    FlatRequest request = FlatRequest::parse(line);
    id_json = request.take_id();
    const std::string op = request.take_string("op");
    if (op == "ping") {
      return {wrap_ok(id_json, handle_ping(request)), false, false};
    }
    if (op == "shutdown") {
      request.expect_exhausted();
      JsonWriter result;
      result.bool_field("stopping", true);
      return {wrap_ok(id_json, result), true, false};
    }
    if (op == "stats") {
      return {wrap_ok(id_json, handle_stats(request, options)), false, false};
    }
    if (op == "analyze") {
      return {wrap_ok(id_json, handle_analyze(request, options)), false, false};
    }
    if (op == "search") {
      return {wrap_ok(id_json, handle_search(request, options)), false, false};
    }
    if (op == "simulate") {
      return {wrap_ok(id_json, handle_simulate(request)), false, false};
    }
    throw InvalidArgument(
        "unknown op '" + op +
        "' (expected ping, analyze, search, simulate, stats, or shutdown)");
  } catch (const std::exception& e) {
    return {wrap_error(id_json, e.what()), false, true};
  } catch (...) {
    return {wrap_error(id_json, "internal error"), false, true};
  }
}

ServeResult run_serve_loop(std::istream& in, std::ostream& out,
                           const ServeOptions& options) {
  SF_REQUIRE(options.max_batch >= 1, "serve: max_batch must be >= 1");
  ThreadPool pool(resolve_threads(options.threads));  // one for the session
  ServeResult totals;
#ifndef NDEBUG
  // The determinism witness: response bytes memoized per distinct request
  // line, re-checked on every repeat. Point queries only — never iterated.
  std::unordered_map<std::string, std::string> replay;
#endif
  std::string line;
  bool stop = false;
  while (!stop && std::getline(in, line)) {
    std::vector<std::string> batch;
    if (!line.empty()) batch.push_back(std::move(line));
    // Greedily drain input that has already arrived (pipelined clients),
    // without blocking on a read once the batch is non-empty.
    while (batch.size() < options.max_batch && in.rdbuf()->in_avail() > 0 &&
           std::getline(in, line)) {
      if (!line.empty()) batch.push_back(std::move(line));
    }
    if (batch.empty()) continue;

    // Request i writes only slot i; handle_request never throws.
    std::vector<HandledRequest> handled(batch.size());
    pool.for_each(batch.size(), [&](std::size_t, std::size_t i) {
      handled[i] = handle_request(batch[i], options);
    });

    for (std::size_t i = 0; i < batch.size(); ++i) {
#ifndef NDEBUG
      const auto it = replay.find(batch[i]);
      if (it == replay.end()) {
        replay.emplace(batch[i], handled[i].response);
      } else if (batch[i].find("\"stats\"") == std::string::npos) {
        SF_ASSERT(it->second == handled[i].response,
                  "serve: a repeated request produced different response "
                  "bytes (determinism contract violated)");
      }
#endif
      out << handled[i].response << "\n";
      ++totals.responses;
      if (handled[i].is_error) ++totals.errors;
      if (handled[i].is_shutdown) stop = true;
    }
    out.flush();
    totals.requests += batch.size();
    ++totals.batches;
  }
  totals.shutdown_requested = stop;
  return totals;
}

ServeResult run_serve_socket(const std::string& path,
                             const ServeOptions& options) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw InvalidArgument(std::string("serve: cannot create socket: ") +
                          std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd);
    throw InvalidArgument("serve: socket path too long: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 1) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    throw InvalidArgument("serve: cannot bind '" + path + "': " + why);
  }

  ServeResult totals;
  while (!totals.shutdown_requested) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;
    }
    FdStreamBuf in_buf(conn);
    FdStreamBuf out_buf(conn);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    const ServeResult r = run_serve_loop(in, out, options);
    out.flush();
    ::close(conn);
    totals.requests += r.requests;
    totals.responses += r.responses;
    totals.errors += r.errors;
    totals.batches += r.batches;
    totals.shutdown_requested = r.shutdown_requested;
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  return totals;
}

}  // namespace streamflow
