// streamflow — command-line analyzer.
//
// Usage:
//   streamflow analyze <instance-file> [--model overlap|strict]
//   streamflow simulate <instance-file> [--model overlap|strict]
//                        [--law <spec>] [--data-sets N] [--seed S]
//                        [--replications R] [--threads T]
//   streamflow search <instance-file> [--objective det|exp]
//                      [--restarts R] [--seed S] [--max-paths P]
//                      [--threads T]
//                      [--kind greedy|anneal|tabu] [--prune none|mct|maxplus]
//                      [--islands I] [--sync-rounds N]
//   streamflow search --scenarios <list-file> [same options]
//                      [--scenario-streams]                       # batch
//   streamflow export-tpn <instance-file> [--model overlap|strict]  # DOT
//   streamflow example > my.instance                                # template
//   streamflow fuzz [--seed S] [--count N] [--replications R]
//                    [--data-sets N] [--threads T]
//                    [--json FILE] [--digest]
//                    [--no-minimize] [--divergence-dir DIR]
//                    [--emit-corpus DIR]
//
// Instance files use the format of model/serialization.hpp. Law specs follow
// dist/distribution.hpp's parse_distribution ("exp:1", "gauss:10,2", ...).
// With --replications R > 1 the simulation runs R times on a thread pool,
// each replication on its own jump-ahead PRNG substream of --seed, and the
// report gains mean/stddev/95% CI statistics. Results are bit-identical for
// every --threads value (see README, "Replicated experiments").
//
// `search` takes the application and platform of the instance (ignoring its
// teams) and fans the greedy + local-search restarts out over a thread pool
// (engine/parallel_search.hpp), each worker scoring candidates through a
// private memoizing AnalysisContext over the one shared instance. Results
// are bit-identical for every --threads value and retrace the serial search
// exactly: restart starts are drawn from --seed in restart order, so growing
// --restarts never changes earlier restarts. `--scenarios FILE` runs every
// instance listed in FILE (one path per line, '#' comments, relative to
// FILE's directory) as a second parallel axis: scenario rows are dispatched
// across the workers and printed in file order; --scenario-streams gives
// scenario j an independent stream family (default: all scenarios share
// --seed, so identical instance files produce identical rows).
//
// `--prune mct|maxplus` arms the admissible bound screens of
// core/analysis_context: cheap deterministic upper bounds filter moves that
// provably cannot beat the incumbent before the expensive CTMC solve, and
// the result stays bit-identical to the unscreened search. `--kind
// anneal|tabu` replaces the greedy restart portfolio with a deterministic
// metaheuristic island portfolio (--islands islands, --sync-rounds rounds);
// islands exchange incumbents only at serial sync points, so the result is
// still a pure function of (seed, options), independent of --threads.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.hpp"
#include "core/analysis_context.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "core/pattern_store.hpp"
#include "engine/parallel_search.hpp"
#include "engine/sim_replication.hpp"
#include "fuzz/diff_harness.hpp"
#include "model/serialization.hpp"
#include "serve/server.hpp"
#include "sim/pipeline_sim.hpp"
#include "tpn/builder.hpp"

namespace {

using namespace streamflow;

void print_usage(std::ostream& out) {
  out << "usage:\n"
      << "  streamflow analyze <instance> [--model overlap|strict]\n"
      << "  streamflow simulate <instance> [--model overlap|strict]\n"
      << "             [--law <spec>] [--data-sets N] [--seed S]\n"
      << "             [--replications R] [--threads T]\n"
      << "  streamflow search <instance> [--model overlap|strict]\n"
      << "             [--objective det|exp] [--restarts R] [--seed S]\n"
      << "             [--max-paths P] [--threads T]\n"
      << "             [--kind greedy|anneal|tabu]\n"
      << "             [--prune none|mct|maxplus]\n"
      << "             [--islands I] [--sync-rounds N]\n"
      << "             [--shared-store] [--store-shards N]\n"
      << "             [--cache-load FILE] [--cache-save FILE]\n"
      << "  streamflow search --scenarios <list-file> [same options]\n"
      << "             [--scenario-streams]\n"
      << "  streamflow serve [--threads T] [--batch B] [--socket PATH]\n"
      << "             [--store-shards N]\n"
      << "             [--cache-load FILE] [--cache-save FILE]\n"
      << "  streamflow export-tpn <instance> [--model overlap|strict]\n"
      << "  streamflow example\n"
      << "  streamflow fuzz [--seed S] [--count N] [--replications R]\n"
      << "             [--data-sets N] [--threads T]\n"
      << "             [--json FILE] [--digest]\n"
      << "             [--no-minimize] [--divergence-dir DIR]\n"
      << "             [--emit-corpus DIR]\n"
      << "  streamflow help | --help\n"
      << "\n"
      << "simulate with --replications R > 1 runs R independent replications\n"
      << "on a thread pool (--threads T, 0 = all cores) and reports mean,\n"
      << "stddev, and 95% CI; replication k always uses PRNG substream k of\n"
      << "--seed, so results are bit-identical for every T.\n"
      << "\n"
      << "search finds a high-throughput mapping of the instance's\n"
      << "application onto its platform (the instance's own teams are\n"
      << "ignored). The --restarts R local searches fan out over a thread\n"
      << "pool (--threads T, 0 = all cores); every worker evaluates\n"
      << "candidates through a private memoizing analysis context over the\n"
      << "one shared instance, and the reduction is serial and in restart\n"
      << "order — results are bit-identical for every --threads value and\n"
      << "equal to the serial search. Restart starts are drawn from --seed\n"
      << "in restart order, so growing R never changes earlier restarts.\n"
      << "--scenarios runs every instance listed in <list-file> (one path\n"
      << "per line, '#' comments, paths relative to the list file) as a\n"
      << "second parallel axis: rows are dispatched across the workers and\n"
      << "printed in file order; --scenario-streams advances scenario j's\n"
      << "seed stream j long jumps so identical scenarios explore\n"
      << "different restarts.\n"
      << "--prune mct screens every move with a cheap admissible rate bound\n"
      << "before the exact solve; --prune maxplus escalates inconclusive\n"
      << "screens through the max-plus deterministic bound. Screens only\n"
      << "skip moves that provably cannot beat the incumbent, so the search\n"
      << "result is bit-identical to --prune none. --kind anneal|tabu runs\n"
      << "a simulated-annealing or tabu island portfolio instead of the\n"
      << "greedy restarts: --islands I deterministic islands (island 0 is\n"
      << "greedy-seeded, island k draws from PRNG substream k) exchange\n"
      << "incumbents round-robin at --sync-rounds serial sync points, so\n"
      << "the outcome is a pure function of (seed, options) for every\n"
      << "--threads value. --kind anneal|tabu is per-instance only and\n"
      << "cannot be combined with --scenarios. --shared-store evaluates\n"
      << "through the process-wide pattern store (implied by --store-shards\n"
      << "N, which uses a private store of N shards instead, and by\n"
      << "--cache-load/--cache-save): workers share pattern solves across\n"
      << "restarts and — via snapshots — across runs, and the result stays\n"
      << "bit-identical to a private-cache search. --cache-load FILE\n"
      << "warm-starts the store from a snapshot (digest-validated; a\n"
      << "missing file is a cold start); --cache-save FILE writes one\n"
      << "after the search.\n"
      << "\n"
      << "serve runs the long-lived evaluation service: one flat JSON\n"
      << "request per line (op = ping|analyze|search|simulate|stats|\n"
      << "shutdown) on stdin/stdout, or on an AF_UNIX socket with --socket\n"
      << "PATH. Up to --batch B pipelined requests are evaluated\n"
      << "concurrently on --threads T workers; every response is a pure\n"
      << "function of its request line — byte-identical for any store\n"
      << "warmth, batching, request interleaving, or --threads value (op\n"
      << "stats, which reports live store counters, is the one exception).\n"
      << "All requests share the process-wide pattern store;\n"
      << "--cache-load/--cache-save warm-start and snapshot it, and a\n"
      << "shutdown request drains the in-flight batch before the loop\n"
      << "stops.\n"
      << "\n"
      << "fuzz draws a deterministic scenario corpus (scenario k is a pure\n"
      << "function of --seed and k) spanning five structural regimes and\n"
      << "every timing-law family, and differentially cross-checks six\n"
      << "evaluators on each scenario: the exponential analyzer against the\n"
      << "replicated simulation CI, Theorem 7's N.B.U.E. sandwich, the\n"
      << "max-plus deterministic upper bound, serial/parallel determinism,\n"
      << "the bound-screened search against the unscreened search\n"
      << "(bit-identical scores, mappings, and evaluation counts), and the\n"
      << "warm shared pattern store against the private-cache path\n"
      << "(bit-identical analyses, component by component). Each divergence\n"
      << "is minimized and written to --divergence-dir as a replayable\n"
      << ".scenario fixture; --json writes the full machine-readable\n"
      << "report; --digest prints the status-only digest (bit-identical for\n"
      << "every --threads value); --no-minimize skips shrinking;\n"
      << "--emit-corpus writes the corpus itself as .scenario files and\n"
      << "exits. Exit code is 1 when any check diverged, 0 otherwise.\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

struct CliArgs {
  std::string command;
  std::string instance_path;
  ExecutionModel model = ExecutionModel::kOverlap;
  std::string law = "exp:1";  // rescaled per resource to its mean
  std::int64_t data_sets = 50'000;
  std::uint64_t seed = 42;
  std::size_t replications = 1;
  std::size_t threads = 0;  // 0 = hardware concurrency
  // search options
  std::string objective;  // "det" | "exp"; empty = per-model default
  std::string scenarios_path;
  std::size_t restarts = 4;
  std::int64_t max_paths = 256;
  bool scenario_streams = false;  // independent stream family per scenario
  std::string kind = "greedy";    // "greedy" | "anneal" | "tabu"
  std::string prune = "none";     // "none" | "mct" | "maxplus"
  std::size_t islands = 4;
  std::size_t sync_rounds = 8;
  // shared pattern store (search and serve)
  bool shared_store = false;    // evaluate through the process-wide store
  std::size_t store_shards = 0;  // 0 = process-wide store; N = private store
  std::string cache_load;        // snapshot to warm-start from
  std::string cache_save;        // snapshot to write afterwards
  // serve options
  std::size_t batch = 16;    // max requests per dispatched batch
  std::string socket_path;   // empty = stdin/stdout pipe mode
  // fuzz options (fuzz/diff_harness.hpp). The harness has its own
  // replications/data-sets defaults, so remember whether the shared flags
  // were given explicitly.
  std::size_t count = 25;
  bool replications_given = false;
  bool data_sets_given = false;
  std::string json_path;
  std::string divergence_dir;
  std::string emit_corpus_dir;
  bool digest = false;
  bool no_minimize = false;
};

/// Strict integer parse: the whole token must be consumed (rejects "1e6",
/// "7x") and the value must fit the destination type (rejects --seed -1).
template <typename Int>
bool parse_integer(const std::string& token, Int& out) {
  try {
    std::size_t pos = 0;
    if constexpr (std::is_unsigned_v<Int>) {
      if (!token.empty() && token[0] == '-') return false;  // stoull wraps
      const unsigned long long value = std::stoull(token, &pos);
      out = static_cast<Int>(value);
    } else {
      const long long value = std::stoll(token, &pos);
      out = static_cast<Int>(value);
    }
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Report a bad flag value on stderr and fail the parse. The pre-audit
/// behavior dumped the full usage text with no hint of WHICH flag was
/// rejected — "--replications 0" and a typo'd path failed identically.
bool flag_error(const std::string& flag, const char* value,
                const char* requirement) {
  std::cerr << "error: " << flag << " requires " << requirement;
  if (value) std::cerr << " (got '" << value << "')";
  std::cerr << "\n";
  return false;
}

bool parse_args(int argc, char** argv, CliArgs& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (a == "--model") {
      const char* v = next();
      if (!v || (std::string(v) != "overlap" && std::string(v) != "strict"))
        return flag_error(a, v, "'overlap' or 'strict'");
      args.model = std::string(v) == "overlap" ? ExecutionModel::kOverlap
                                               : ExecutionModel::kStrict;
    } else if (a == "--law") {
      const char* v = next();
      if (!v) return flag_error(a, v, "a distribution spec such as 'exp:1'");
      args.law = v;
    } else if (a == "--data-sets") {
      const char* v = next();
      if (!v || !parse_integer(v, args.data_sets) || args.data_sets <= 0)
        return flag_error(a, v, "a positive integer");
      args.data_sets_given = true;
    } else if (a == "--seed") {
      // Unsigned: "-1" is rejected here rather than wrapping to 2^64-1,
      // which would silently seed a different (irreproducible-looking)
      // stream than the user asked for.
      const char* v = next();
      if (!v || !parse_integer(v, args.seed))
        return flag_error(a, v, "a non-negative integer below 2^64");
    } else if (a == "--replications") {
      const char* v = next();
      if (!v || !parse_integer(v, args.replications) || args.replications == 0)
        return flag_error(a, v, "a positive integer");
      args.replications_given = true;
    } else if (a == "--threads") {
      // 0 is meaningful (all hardware cores); the pool clamps T to the
      // number of work items, so large values are safe, not fork bombs.
      const char* v = next();
      if (!v || !parse_integer(v, args.threads))
        return flag_error(a, v, "a non-negative integer (0 = all cores)");
    } else if (a == "--objective") {
      const char* v = next();
      if (!v || (std::string(v) != "det" && std::string(v) != "exp"))
        return flag_error(a, v, "'det' or 'exp'");
      args.objective = v;
    } else if (a == "--scenarios") {
      const char* v = next();
      if (!v) return flag_error(a, v, "a list-file path");
      args.scenarios_path = v;
    } else if (a == "--restarts") {
      const char* v = next();
      if (!v || !parse_integer(v, args.restarts) || args.restarts == 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--max-paths") {
      const char* v = next();
      if (!v || !parse_integer(v, args.max_paths) || args.max_paths <= 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--scenario-streams") {
      args.scenario_streams = true;
    } else if (a == "--kind") {
      const char* v = next();
      if (!v || (std::string(v) != "greedy" && std::string(v) != "anneal" &&
                 std::string(v) != "tabu"))
        return flag_error(a, v, "'greedy', 'anneal', or 'tabu'");
      args.kind = v;
    } else if (a == "--prune") {
      const char* v = next();
      if (!v || (std::string(v) != "none" && std::string(v) != "mct" &&
                 std::string(v) != "maxplus"))
        return flag_error(a, v, "'none', 'mct', or 'maxplus'");
      args.prune = v;
    } else if (a == "--islands") {
      const char* v = next();
      if (!v || !parse_integer(v, args.islands) || args.islands == 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--sync-rounds") {
      const char* v = next();
      if (!v || !parse_integer(v, args.sync_rounds) || args.sync_rounds == 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--count") {
      const char* v = next();
      if (!v || !parse_integer(v, args.count) || args.count == 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--json") {
      const char* v = next();
      if (!v) return flag_error(a, v, "an output file path");
      args.json_path = v;
    } else if (a == "--divergence-dir") {
      const char* v = next();
      if (!v) return flag_error(a, v, "an output directory");
      args.divergence_dir = v;
    } else if (a == "--emit-corpus") {
      const char* v = next();
      if (!v) return flag_error(a, v, "an output directory");
      args.emit_corpus_dir = v;
    } else if (a == "--shared-store") {
      args.shared_store = true;
    } else if (a == "--store-shards") {
      const char* v = next();
      if (!v || !parse_integer(v, args.store_shards) || args.store_shards == 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--cache-load") {
      const char* v = next();
      if (!v) return flag_error(a, v, "a snapshot file path");
      args.cache_load = v;
    } else if (a == "--cache-save") {
      const char* v = next();
      if (!v) return flag_error(a, v, "a snapshot file path");
      args.cache_save = v;
    } else if (a == "--batch") {
      const char* v = next();
      if (!v || !parse_integer(v, args.batch) || args.batch == 0)
        return flag_error(a, v, "a positive integer");
    } else if (a == "--socket") {
      const char* v = next();
      if (!v) return flag_error(a, v, "a socket path");
      args.socket_path = v;
    } else if (a == "--digest") {
      args.digest = true;
    } else if (a == "--no-minimize") {
      args.no_minimize = true;
    } else if (!a.empty() && a[0] != '-' && positional == 0) {
      args.instance_path = a;
      ++positional;
    } else {
      std::cerr << "error: unknown or misplaced argument '" << a << "'\n";
      return false;
    }
  }
  return true;
}

Mapping load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open instance file '" + path + "'");
  return load_instance(in);
}

int cmd_analyze(const CliArgs& args) {
  const Mapping mapping = load(args.instance_path);
  std::cout << mapping.to_string() << "\n";
  std::cout << "model: " << to_string(args.model) << ", m = "
            << mapping.num_paths() << " paths\n\n";
  const auto det = deterministic_throughput(mapping, args.model);
  std::cout << "deterministic throughput : " << det.throughput << "\n";
  std::cout << "in-order delivery rate   : " << det.in_order_throughput
            << "\n";
  std::cout << "critical-resource bound  : " << det.critical_resource_throughput
            << (det.critical_resource_attained ? " (attained)"
                                               : " (NOT attained)")
            << "\n";
  ExponentialOptions options;
  const auto exp = exponential_throughput(mapping, args.model, options);
  std::cout << "exponential throughput   : " << exp.throughput << "  ("
            << (exp.method_used == ExponentialMethod::kColumns
                    ? "Theorem 3/4 columns"
                    : "Theorem 2 CTMC, " + std::to_string(exp.ctmc_states) +
                          " states")
            << ")\n";
  const auto bounds = nbue_throughput_bounds(mapping, args.model, options);
  std::cout << "N.B.U.E. guarantee       : [" << bounds.lower << ", "
            << bounds.upper << "]\n";
  if (!exp.components.empty()) {
    std::cout << "\nbottlenecks:\n";
    for (const auto& c : exp.components) {
      if (!c.bottleneck) continue;
      std::cout << "  " << c.label << ": saturated " << c.inner
                << ", effective " << c.effective << "\n";
    }
  }
  return 0;
}

int cmd_simulate(const CliArgs& args) {
  const Mapping mapping = load(args.instance_path);
  const DistributionPtr law = parse_distribution(args.law);
  const StochasticTiming timing = StochasticTiming::scaled(mapping, *law);
  PipelineSimOptions options;
  options.data_sets = args.data_sets;
  options.seed = args.seed;
  std::cout << "law            : " << law->name() << " (rescaled per resource)"
            << (timing.all_nbue() ? ", N.B.U.E." : ", NOT N.B.U.E.") << "\n";

  if (args.replications <= 1) {
    const auto r = simulate_pipeline(mapping, args.model, timing, options);
    std::cout << "throughput     : " << r.throughput << "\n";
    std::cout << "in-order rate  : " << r.in_order_throughput << "\n";
    std::cout << "mean latency   : " << r.mean_latency << "\n";
    std::cout << "completed      : " << r.completed << " data sets in "
              << r.elapsed << " time units\n";
    return 0;
  }

  ExperimentOptions experiment;
  experiment.replications = args.replications;
  experiment.threads = args.threads;
  experiment.seed = args.seed;
  const ReplicatedResult r =
      run_replicated_pipeline(mapping, args.model, timing, options, experiment);
  const MetricSummary& throughput = r.metric("throughput");
  std::cout << "replications   : " << r.replications << " x "
            << args.data_sets << " data sets on " << r.threads_used
            << " thread(s), seed " << r.seed
            << " (bit-identical for any --threads)\n";
  std::cout << "throughput     : " << throughput.mean << " +/- "
            << throughput.ci95_halfwidth << " (95% CI)\n";
  std::cout << "  stddev       : " << throughput.stddev << "\n";
  std::cout << "  min / max    : " << throughput.min << " / " << throughput.max
            << "\n";
  std::cout << "in-order rate  : " << r.metric("in_order_throughput").mean
            << "\n";
  std::cout << "mean latency   : " << r.metric("mean_latency").mean << "\n\n";

  Table table({"replication", "throughput", "in-order", "mean latency",
               "completed"});
  table.set_precision(6);
  const std::vector<double> tput = r.column("throughput");
  const std::vector<double> in_order = r.column("in_order_throughput");
  const std::vector<double> latency = r.column("mean_latency");
  const std::vector<double> completed = r.column("completed");
  for (std::size_t k = 0; k < r.replications; ++k) {
    table.add_row({static_cast<std::int64_t>(k), tput[k], in_order[k],
                   latency[k], static_cast<std::int64_t>(completed[k])});
  }
  table.print(std::cout, "per-replication results");
  return 0;
}

std::vector<std::string> read_scenarios(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open scenario file '" + path + "'");
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  std::vector<std::string> result;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(begin, end - begin + 1);
    const std::filesystem::path p(token);
    result.push_back(p.is_absolute() ? p.string() : (dir / p).string());
  }
  if (result.empty()) {
    throw InvalidArgument("scenario file '" + path + "' lists no instances");
  }
  return result;
}

/// Resolves the shared-store flags: a private store of --store-shards
/// shards (held in `local`) or the process-wide store, warm-started from
/// --cache-load when given. Returns null when no store flag was passed.
PatternStore* select_store(const CliArgs& args,
                           std::optional<PatternStore>& local,
                           std::size_t& loaded) {
  const bool wants_store = args.shared_store || args.store_shards > 0 ||
                           !args.cache_load.empty() ||
                           !args.cache_save.empty();
  if (!wants_store) return nullptr;
  PatternStore* store;
  if (args.store_shards > 0) {
    local.emplace(args.store_shards);
    store = &*local;
  } else {
    store = &PatternStore::process_wide();
  }
  // A nonexistent snapshot is a cold start (returns 0); an invalid one
  // throws with a line diagnostic before any search work happens.
  if (!args.cache_load.empty()) loaded = store->load_file(args.cache_load);
  return store;
}

/// Search-mode store report. Prints only scheduling-invariant quantities
/// (entry count, shard count, digest) — the store hit/miss SPLIT depends on
/// which worker solved a pattern first, so it stays unreported, exactly
/// like the per-context split.
void report_store(const CliArgs& args, PatternStore& store,
                  std::size_t loaded) {
  std::cout << "pattern store: " << store.size() << " entries in "
            << store.shard_count() << " shard(s)";
  if (loaded > 0) std::cout << ", " << loaded << " warm-started";
  std::cout << ", digest " << std::hex << store.digest() << std::dec
            << " (results bit-identical to a private-cache run)\n";
  if (!args.cache_save.empty()) {
    store.save_file(args.cache_save);
    std::cout << "pattern store: snapshot saved to '" << args.cache_save
              << "'\n";
  }
}

int cmd_search(const CliArgs& args) {
  if (!args.instance_path.empty() && !args.scenarios_path.empty()) {
    throw InvalidArgument(
        "pass either an instance file or --scenarios, not both (list every "
        "instance in the scenario file)");
  }
  std::optional<PatternStore> local_store;
  std::size_t warm_loaded = 0;
  PatternStore* store = select_store(args, local_store, warm_loaded);
  ParallelSearchOptions options;
  options.pattern_store = store;
  options.search.model = args.model;
  if (args.objective.empty()) {
    // The exponential objective needs the column method (Overlap only).
    options.search.objective = args.model == ExecutionModel::kStrict
                                   ? MappingObjective::kDeterministic
                                   : MappingObjective::kExponential;
  } else {
    options.search.objective = args.objective == "det"
                                   ? MappingObjective::kDeterministic
                                   : MappingObjective::kExponential;
  }
  options.search.restarts = args.restarts;
  options.search.seed = args.seed;
  options.search.max_paths = args.max_paths;
  options.search.kind = args.kind == "anneal" ? RestartKind::kAnnealing
                        : args.kind == "tabu" ? RestartKind::kTabu
                                              : RestartKind::kGreedyLocal;
  options.search.bounds = args.prune == "mct"       ? BoundPolicy::kMct
                          : args.prune == "maxplus" ? BoundPolicy::kMctMaxplus
                                                    : BoundPolicy::kNone;
  options.threads = args.threads;
  options.scenario_streams = args.scenario_streams;
  options.islands = args.islands;
  options.sync_rounds = args.sync_rounds;
  if (options.search.kind != RestartKind::kGreedyLocal &&
      !args.scenarios_path.empty()) {
    throw InvalidArgument(
        "--kind anneal|tabu searches one instance (the island portfolio does "
        "not compose with --scenarios); run the batch with --kind greedy");
  }

  const char* objective_name =
      options.search.objective == MappingObjective::kDeterministic
          ? "deterministic"
          : "exponential";

  if (args.scenarios_path.empty()) {
    const Mapping instance = load(args.instance_path);
    // Share the loaded instance: the whole portfolio runs without copying
    // the application or the platform's bandwidth matrix. Everything below
    // except the reported worker count is bit-identical for any --threads.
    const ParallelSearchResult result =
        parallel_optimize_mapping(instance.instance(), options);
    std::cout << "objective    : " << objective_name << " throughput ("
              << to_string(options.search.model) << " model)\n";
    if (options.search.kind == RestartKind::kGreedyLocal) {
      std::cout << "portfolio    : " << result.restarts << " restart(s), "
                << "serial seeding, seed " << args.seed << ", on "
                << result.threads_used
                << " worker thread(s) (results independent of --threads)\n";
    } else {
      std::cout << "portfolio    : " << args.kind << ", " << result.restarts
                << " island(s) x " << args.sync_rounds
                << " sync round(s), seed " << args.seed << ", on "
                << result.threads_used
                << " worker thread(s) (results independent of --threads)\n";
    }
    std::cout << "best mapping : " << result.mapping.to_string() << "\n";
    std::cout << "throughput   : " << result.throughput << "  (greedy start "
              << result.greedy_throughput << ", best found by "
              << (options.search.kind == RestartKind::kGreedyLocal
                      ? "restart "
                      : "island ")
              << result.best_restart << ")\n";
    std::cout << "evaluations  : " << result.evaluations << "  ("
              << result.pattern_requests
              << " pattern solves requested across workers)\n";
    if (options.search.bounds != BoundPolicy::kNone) {
      const std::size_t pruned =
          result.moves_pruned_mct + result.moves_pruned_maxplus;
      const std::size_t probes = pruned + result.moves_solved;
      std::cout << "prune screen : " << args.prune << ": " << pruned << "/"
                << probes << " move probes pruned (" << result.moves_pruned_mct
                << " by the rate bound, " << result.moves_pruned_maxplus
                << " by max-plus), " << result.moves_solved
                << " solved exactly; result bit-identical to --prune none\n";
    }
    if (store != nullptr) report_store(args, *store, warm_loaded);
    return 0;
  }

  const std::vector<std::string> scenarios =
      read_scenarios(args.scenarios_path);
  // Load serially up front (errors name the first offending file), then fan
  // the scenario portfolios out across the pool in one batch call.
  std::vector<InstancePtr> instances;
  instances.reserve(scenarios.size());
  for (const std::string& path : scenarios) {
    instances.push_back(load(path).instance());
  }
  const std::vector<ParallelSearchResult> results =
      parallel_optimize_batch(instances, options);

  Table table({"scenario", "stages", "procs", "throughput", "greedy",
               "evaluations"});
  table.set_precision(6);
  std::size_t evaluations = 0, pattern_requests = 0;
  for (std::size_t j = 0; j < scenarios.size(); ++j) {
    const ParallelSearchResult& result = results[j];
    table.add_row({std::filesystem::path(scenarios[j]).filename().string(),
                   static_cast<std::int64_t>(instances[j]->application
                                                 .num_stages()),
                   static_cast<std::int64_t>(instances[j]->platform
                                                 .num_processors()),
                   result.throughput, result.greedy_throughput,
                   static_cast<std::int64_t>(result.evaluations)});
    evaluations += result.evaluations;
    pattern_requests += result.pattern_requests;
  }
  // Mirrors the pool sizing inside parallel_optimize_batch (each returned
  // row's own threads_used is 1 by design: one worker per scenario).
  const std::size_t threads_used = std::min<std::size_t>(
      options.resolved_threads(), scenarios.size());
  table.print(std::cout,
              std::string("mapping search (") + objective_name +
                  " objective, seed " + std::to_string(args.seed) +
                  (options.scenario_streams ? ", scenario streams" : "") +
                  ")");
  std::cout << "\nportfolio batch: " << scenarios.size() << " scenario(s) x "
            << std::max<std::size_t>(args.restarts, 1) << " restart(s) on "
            << threads_used << " worker thread(s)\n";
  std::cout << "evaluations    : " << evaluations << " total, "
            << pattern_requests << " pattern solves requested (rows "
            << "independent of --threads)\n";
  if (store != nullptr) report_store(args, *store, warm_loaded);
  return 0;
}

int cmd_serve(const CliArgs& args) {
  ServeOptions options;
  options.threads = args.threads;
  options.max_batch = args.batch;
  // serve always shares a store across requests: a private one when
  // --store-shards is given, the process-wide instance otherwise.
  std::optional<PatternStore> local_store;
  if (args.store_shards > 0) local_store.emplace(args.store_shards);
  PatternStore& store =
      local_store ? *local_store : PatternStore::process_wide();
  options.store = &store;
  if (!args.cache_load.empty()) {
    const std::size_t loaded = store.load_file(args.cache_load);
    // Diagnostics go to stderr: stdout is the response channel in pipe
    // mode, and its bytes are part of the determinism contract.
    std::cerr << "serve: warm-started " << loaded << " pattern entries from '"
              << args.cache_load << "' (store digest " << std::hex
              << store.digest() << std::dec << ")\n";
  }
  const ServeResult result =
      args.socket_path.empty()
          ? run_serve_loop(std::cin, std::cout, options)
          : run_serve_socket(args.socket_path, options);
  if (!args.cache_save.empty()) {
    store.save_file(args.cache_save);
    std::cerr << "serve: saved " << store.size() << " pattern entries to '"
              << args.cache_save << "'\n";
  }
  std::cerr << "serve: " << result.requests << " request(s) in "
            << result.batches << " batch(es), " << result.errors
            << " error(s), "
            << (result.shutdown_requested ? "shutdown requested"
                                          : "input closed")
            << "\n";
  return 0;
}

int cmd_export_tpn(const CliArgs& args) {
  const Mapping mapping = load(args.instance_path);
  const TimedEventGraph g = build_tpn(mapping, args.model);
  g.write_dot(std::cout);
  return 0;
}

int cmd_fuzz(const CliArgs& args) {
  HarnessOptions options;
  options.corpus.seed = args.seed;
  options.count = args.count;
  if (args.replications_given) options.replications = args.replications;
  if (args.data_sets_given) options.data_sets = args.data_sets;
  options.threads = args.threads;
  options.minimize = !args.no_minimize;
  options.validate();

  if (!args.emit_corpus_dir.empty()) {
    std::filesystem::create_directories(args.emit_corpus_dir);
    for (std::size_t k = 0; k < options.count; ++k) {
      const Scenario scenario = draw_scenario(options.corpus, k);
      const std::filesystem::path path =
          std::filesystem::path(args.emit_corpus_dir) /
          ("s" + std::to_string(k) + ".scenario");
      std::ofstream out(path);
      if (!out) {
        throw InvalidArgument("cannot write corpus file '" + path.string() +
                              "'");
      }
      save_scenario(out, scenario);
    }
    std::cout << "wrote " << options.count << " scenarios to "
              << args.emit_corpus_dir << "\n";
    return 0;
  }

  const HarnessReport report = run_diff_harness(options);

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      throw InvalidArgument("cannot write report file '" + args.json_path +
                            "'");
    }
    out << report.to_json();
  }
  if (!args.divergence_dir.empty() && !report.divergences.empty()) {
    std::filesystem::create_directories(args.divergence_dir);
    for (const DivergenceRecord& record : report.divergences) {
      const std::filesystem::path path =
          std::filesystem::path(args.divergence_dir) /
          ("div_s" + std::to_string(record.scenario_id) + "_" +
           to_string(record.check) + ".scenario");
      std::ofstream out(path);
      if (!out) {
        throw InvalidArgument("cannot write divergence fixture '" +
                              path.string() + "'");
      }
      out << record.fixture_text;
    }
  }

  if (args.digest) {
    // Status-only digest: bit-identical for every --threads value (pinned
    // by tools/fuzz_smoke.cmake).
    std::cout << report.digest();
  } else {
    std::cout << report.digest() << "\n";
    for (const DivergenceRecord& record : report.divergences) {
      std::cout << "DIVERGENCE " << record.original_label << " check "
                << to_string(record.check) << ": " << record.detail << "\n";
      std::cout << "  minimized in " << record.shrink_steps << " step(s) to "
                << record.minimized.mapping.num_stages() << " stage(s) on "
                << record.minimized.mapping.num_processors()
                << " processor(s)\n";
      if (args.divergence_dir.empty()) {
        std::cout << "  (pass --divergence-dir to write the replayable "
                  << "fixture)\n";
      }
    }
  }
  return report.fails == 0 ? 0 : 1;
}

int cmd_example() {
  Application app({2.0, 6.0, 4.0, 1.0}, {1.0, 3.0, 1.0});
  Platform platform = Platform::fully_connected(
      {2.0, 1.5, 1.0, 1.2, 0.8, 1.1, 2.5}, 2.0);
  Mapping mapping(app, platform, {{0}, {1, 2}, {3, 4, 5}, {6}});
  save_instance(std::cout, mapping);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!parse_args(argc, argv, args)) return usage();
  if (args.command == "help" || args.command == "--help" ||
      args.command == "-h") {
    print_usage(std::cout);
    return 0;
  }
  try {
    if (args.command == "example") return cmd_example();
    if (args.command == "fuzz") return cmd_fuzz(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "search" &&
        (!args.instance_path.empty() || !args.scenarios_path.empty())) {
      return cmd_search(args);
    }
    if (args.instance_path.empty()) return usage();
    if (args.command == "analyze") return cmd_analyze(args);
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "export-tpn") return cmd_export_tpn(args);
    return usage();
  } catch (const streamflow::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
