// streamflow — command-line analyzer; `streamflow_cli --help` documents it.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "common/text_reader.hpp"
#include "core/analysis_context.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "core/pattern_store.hpp"
#include "engine/parallel_search.hpp"
#include "engine/sim_replication.hpp"
#include "engine/thread_pool.hpp"
#include "fuzz/diff_harness.hpp"
#include "model/serialization.hpp"
#include "serve/server.hpp"
#include "sim/pipeline_sim.hpp"
#include "tpn/builder.hpp"

namespace {

using namespace streamflow;

/// The fixed tail of --help, after the usage lines generated from kCommands
/// and kFlags.
void print_usage_prose(std::ostream& out) {
  out << "  streamflow help | --help\n"
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
      << "order — results are bit-identical for every --threads value,\n"
      << "--threads 1 included. Restart starts are drawn from --seed\n"
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
      << "cannot be combined with --scenarios. Every worker evaluates\n"
      << "through one shared pattern store, so workers share pattern\n"
      << "solves across restarts and — via snapshots — across runs; a\n"
      << "store hit returns the bits a solve would, so results never depend\n"
      << "on the store's warmth. --cache-load FILE warm-starts the store\n"
      << "from a snapshot (digest-validated; a missing file is a cold\n"
      << "start); --cache-save FILE writes one after the search.\n"
      << "\n"
      << "serve runs the long-lived evaluation service: one flat JSON\n"
      << "request per line (op = ping|analyze|search|simulate|stats|\n"
      << "shutdown) on stdin/stdout, or on an AF_UNIX socket with --socket\n"
      << "PATH. Up to --batch B pipelined requests are evaluated\n"
      << "concurrently on --threads T workers; every response is a pure\n"
      << "function of its request line — byte-identical for any store\n"
      << "warmth, batching, request interleaving, or --threads value (op\n"
      << "stats, which reports live store counters, is the one exception).\n"
      << "All requests share one pattern store;\n"
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
      << "warm shared pattern store against a context's own store\n"
      << "(bit-identical analyses, component by component). Each divergence\n"
      << "is minimized and written to --divergence-dir as a replayable\n"
      << ".scenario fixture; --json writes the full machine-readable\n"
      << "report; --digest prints the status-only digest (bit-identical for\n"
      << "every --threads value); --no-minimize skips shrinking;\n"
      << "--emit-corpus writes the corpus itself as .scenario files and\n"
      << "exits. Exit code is 1 when any check diverged, 0 otherwise.\n";
}

// Subcommand bits: each flag row names the subcommands that accept it.
enum : unsigned {
  kAnalyze = 1u << 0,
  kSimulate = 1u << 1,
  kSearch = 1u << 2,
  kServe = 1u << 3,
  kExportTpn = 1u << 4,
  kExample = 1u << 5,
  kFuzz = 1u << 6,
};

struct CliArgs {
  std::string instance_path;
  ExecutionModel model = ExecutionModel::kOverlap;
  std::string law = "exp:1";  // rescaled per resource to its mean
  // Unset = the subcommand's default: one run of 50'000 data sets for
  // simulate, the harness's own defaults for fuzz.
  std::optional<std::int64_t> data_sets;
  std::uint64_t seed = 42;
  std::optional<std::size_t> replications;
  std::size_t threads = 0;  // 0 = hardware concurrency
  // search options
  std::optional<MappingObjective> objective;  // unset = per-model default
  std::string scenarios_path;
  std::size_t restarts = 4;
  std::int64_t max_paths = 256;
  bool scenario_streams = false;  // independent stream family per scenario
  RestartKind kind = RestartKind::kGreedyLocal;
  BoundPolicy prune = BoundPolicy::kNone;
  std::size_t islands = 4;
  std::size_t sync_rounds = 8;
  // pattern-store snapshots (search and serve)
  std::string cache_load;  // snapshot to warm-start from
  std::string cache_save;  // snapshot to write afterwards
  // serve options
  std::size_t batch = 16;    // max requests per dispatched batch
  std::string socket_path;   // empty = stdin/stdout pipe mode
  // fuzz options (fuzz/diff_harness.hpp)
  std::size_t count = 25;
  std::string json_path;
  std::string divergence_dir;
  std::string emit_corpus_dir;
  bool digest = false;
  bool no_minimize = false;
};

/// One row of the flag table: the parser, the per-subcommand check and the
/// --help usage lines all read it.
struct Flag {
  std::string_view name;
  std::string metavar;      // empty for a switch
  unsigned commands;        // subcommand bits that accept the flag
  std::string requirement;  // what a rejected value should have been
  std::function<bool(CliArgs&, std::string_view)> set;  // false = rejected
};

/// An integer flag of at least `min` (0 or 1), read by parse_number: the
/// whole token must be an integer that fits the field's type.
template <typename Field>
Flag integer(std::string_view name, std::string metavar, unsigned commands,
             Field CliArgs::*field, int min) {
  // Field is Int or std::optional<Int>; deduction unwraps the optional.
  using Int =
      typename decltype(std::optional(std::declval<Field>()))::value_type;
  return {name, std::move(metavar), commands,
          min == 0 ? "a non-negative integer" : "a positive integer",
          [field, min](CliArgs& args, std::string_view token) {
            Int value = 0;
            if (parse_number(token, value) || std::cmp_less(value, min)) {
              return false;
            }
            args.*field = value;
            return true;
          }};
}

template <typename Enum>
using Spelling = std::pair<std::string_view, Enum>;

constexpr Spelling<ExecutionModel> kModels[] = {
    {"overlap", ExecutionModel::kOverlap}, {"strict", ExecutionModel::kStrict}};
constexpr Spelling<MappingObjective> kObjectives[] = {
    {"det", MappingObjective::kDeterministic},
    {"exp", MappingObjective::kExponential}};
constexpr Spelling<RestartKind> kKinds[] = {
    {"greedy", RestartKind::kGreedyLocal},
    {"anneal", RestartKind::kAnnealing},
    {"tabu", RestartKind::kTabu}};
constexpr Spelling<BoundPolicy> kPrunes[] = {
    {"none", BoundPolicy::kNone},
    {"mct", BoundPolicy::kMct},
    {"maxplus", BoundPolicy::kMctMaxplus}};

/// The spelling of `value`; every enumerator has one in its table.
template <typename Enum, std::size_t N>
std::string_view spelling(const Spelling<Enum> (&spellings)[N], Enum value) {
  return std::ranges::find(spellings, value, &Spelling<Enum>::second)->first;
}

/// A flag whose value is one of `spellings`, stored as its enum value.
template <typename Field, typename Enum, std::size_t N>
Flag choice(std::string_view name, unsigned commands, Field CliArgs::*field,
            const Spelling<Enum> (&spellings)[N]) {
  std::string metavar;
  for (const auto& [spelling, value] : spellings) {
    metavar += (metavar.empty() ? "" : "|") + std::string(spelling);
  }
  return {name, metavar, commands, "one of " + metavar,
          [field, table = std::span(spellings)](CliArgs& args,
                                                 std::string_view token) {
            const auto it =
                std::ranges::find(table, token, &Spelling<Enum>::first);
            if (it == table.end()) return false;
            args.*field = it->second;
            return true;
          }};
}

Flag text(std::string_view name, std::string metavar, unsigned commands,
          std::string CliArgs::*field) {
  return {name, metavar, commands, metavar,
          [field](CliArgs& args, std::string_view token) {
            args.*field = token;
            return true;
          }};
}

Flag toggle(std::string_view name, unsigned commands, bool CliArgs::*field) {
  return {name, "", commands, "",
          [field](CliArgs& args, std::string_view) {
            args.*field = true;
            return true;
          }};
}

// --threads 0 is meaningful (all hardware cores); the pools clamp T to the
// number of work items, so large values are safe.
const Flag kFlags[] = {
    choice("--model", kAnalyze | kSimulate | kSearch | kExportTpn,
           &CliArgs::model, kModels),
    text("--law", "<spec>", kSimulate, &CliArgs::law),
    integer("--data-sets", "N", kSimulate | kFuzz, &CliArgs::data_sets, 1),
    integer("--seed", "S", kSimulate | kSearch | kFuzz, &CliArgs::seed, 0),
    integer("--replications", "R", kSimulate | kFuzz, &CliArgs::replications,
            1),
    integer("--threads", "T", kSimulate | kSearch | kServe | kFuzz,
            &CliArgs::threads, 0),
    choice("--objective", kSearch, &CliArgs::objective, kObjectives),
    integer("--restarts", "R", kSearch, &CliArgs::restarts, 1),
    integer("--max-paths", "P", kSearch, &CliArgs::max_paths, 1),
    choice("--kind", kSearch, &CliArgs::kind, kKinds),
    choice("--prune", kSearch, &CliArgs::prune, kPrunes),
    integer("--islands", "I", kSearch, &CliArgs::islands, 1),
    integer("--sync-rounds", "N", kSearch, &CliArgs::sync_rounds, 1),
    text("--cache-load", "FILE", kSearch | kServe, &CliArgs::cache_load),
    text("--cache-save", "FILE", kSearch | kServe, &CliArgs::cache_save),
    text("--scenarios", "<list-file>", kSearch, &CliArgs::scenarios_path),
    toggle("--scenario-streams", kSearch, &CliArgs::scenario_streams),
    integer("--batch", "B", kServe, &CliArgs::batch, 1),
    text("--socket", "PATH", kServe, &CliArgs::socket_path),
    integer("--count", "N", kFuzz, &CliArgs::count, 1),
    text("--json", "FILE", kFuzz, &CliArgs::json_path),
    toggle("--digest", kFuzz, &CliArgs::digest),
    toggle("--no-minimize", kFuzz, &CliArgs::no_minimize),
    text("--divergence-dir", "DIR", kFuzz, &CliArgs::divergence_dir),
    text("--emit-corpus", "DIR", kFuzz, &CliArgs::emit_corpus_dir),
};

Mapping load(const std::string& path) {
  return instance_from_string(read_text_file(path, "instance file"));
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
  // Theorem 7: rho_exp <= rho_nbue <= rho_det, from the two analyses above.
  std::cout << "N.B.U.E. guarantee       : [" << exp.throughput << ", "
            << det.throughput << "]\n";
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
  options.data_sets = args.data_sets.value_or(50'000);
  options.seed = args.seed;
  std::cout << "law            : " << law->name() << " (rescaled per resource)"
            << (timing.all_nbue() ? ", N.B.U.E." : ", NOT N.B.U.E.") << "\n";

  if (args.replications.value_or(1) <= 1) {
    const auto r = simulate_pipeline(mapping, args.model, timing, options);
    std::cout << "throughput     : " << r.throughput << "\n";
    std::cout << "in-order rate  : " << r.in_order_throughput << "\n";
    std::cout << "mean latency   : " << r.mean_latency << "\n";
    std::cout << "completed      : " << r.completed << " data sets in "
              << r.elapsed << " time units\n";
    return 0;
  }

  ExperimentOptions experiment;
  experiment.replications = *args.replications;
  experiment.threads = args.threads;
  experiment.seed = args.seed;
  const ReplicatedResult r =
      run_replicated_pipeline(mapping, args.model, timing, options, experiment);
  const MetricSummary& throughput = r.metric("throughput");
  std::cout << "replications   : " << r.replications << " x "
            << options.data_sets << " data sets on " << r.threads_used
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
  const std::string text = read_text_file(path, "scenario file");
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  std::vector<std::string> result;
  TextReader reader(text, "scenario list");
  while (reader.next_line()) {
    const std::filesystem::path p(reader.line());
    result.push_back(p.is_absolute() ? p.string() : (dir / p).string());
  }
  if (result.empty()) {
    throw InvalidArgument("scenario file '" + path + "' lists no instances");
  }
  return result;
}

/// Search-mode store report, printed when a snapshot is loaded or saved.
/// Prints only scheduling-invariant quantities (entry count, digest) — the
/// store hit/miss SPLIT depends on which worker solved a pattern first, so
/// it stays unreported, exactly like the per-context split.
void report_store(const CliArgs& args, const PatternStore& store,
                  std::size_t loaded) {
  if (args.cache_load.empty() && args.cache_save.empty()) return;
  std::cout << "pattern store: " << store.stats().entries << " entries";
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
  PatternStore store;
  // A nonexistent snapshot is a cold start (returns 0); an invalid one
  // throws with a line diagnostic before any search work happens.
  const std::size_t warm_loaded =
      args.cache_load.empty() ? 0 : store.load_file(args.cache_load);
  ParallelSearchOptions options;
  options.pattern_store = &store;
  options.search.model = args.model;
  // The exponential objective needs the column method (Overlap only).
  options.search.objective = args.objective.value_or(
      args.model == ExecutionModel::kStrict ? MappingObjective::kDeterministic
                                            : MappingObjective::kExponential);
  options.search.restarts = args.restarts;
  options.search.seed = args.seed;
  options.search.max_paths = args.max_paths;
  options.search.kind = args.kind;
  options.search.bounds = args.prune;
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
      std::cout << "portfolio    : " << spelling(kKinds, args.kind) << ", "
                << result.restarts << " island(s) x " << args.sync_rounds
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
      std::cout << "prune screen : " << spelling(kPrunes, args.prune) << ": "
                << pruned << "/" << probes << " move probes pruned ("
                << result.moves_pruned_mct
                << " by the rate bound, " << result.moves_pruned_maxplus
                << " by max-plus), " << result.moves_solved
                << " solved exactly; result bit-identical to --prune none\n";
    }
    report_store(args, store, warm_loaded);
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
      resolve_threads(options.threads), scenarios.size());
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
  report_store(args, store, warm_loaded);
  return 0;
}

int cmd_serve(const CliArgs& args) {
  ServeOptions options;
  options.threads = args.threads;
  options.max_batch = args.batch;
  // serve always shares one store across requests.
  PatternStore store;
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
    std::cerr << "serve: saved " << store.stats().entries
              << " pattern entries to '"
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
  if (args.replications) options.replications = *args.replications;
  if (args.data_sets) options.data_sets = *args.data_sets;
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

int cmd_example(const CliArgs&) {
  Application app({2.0, 6.0, 4.0, 1.0}, {1.0, 3.0, 1.0});
  Platform platform = Platform::fully_connected(
      {2.0, 1.5, 1.0, 1.2, 0.8, 1.1, 2.5}, 2.0);
  Mapping mapping(make_instance(app, platform),
                  {{0}, {1, 2}, {3, 4, 5}, {6}});
  save_instance(std::cout, mapping);
  return 0;
}

/// One row per subcommand: its flag bit and its positional arity.
struct Command {
  std::string_view name;
  unsigned bit;
  std::size_t arity;  // 1 = takes an <instance> (search: or --scenarios)
  int (*run)(const CliArgs&);
};

constexpr Command kCommands[] = {
    {"analyze", kAnalyze, 1, cmd_analyze},
    {"simulate", kSimulate, 1, cmd_simulate},
    {"search", kSearch, 1, cmd_search},
    {"serve", kServe, 0, cmd_serve},
    {"export-tpn", kExportTpn, 1, cmd_export_tpn},
    {"example", kExample, 0, cmd_example},
    {"fuzz", kFuzz, 0, cmd_fuzz},
};

void print_usage(std::ostream& out) {
  out << "usage:\n";
  for (const Command& command : kCommands) {
    std::string line = "  streamflow ";
    line.append(command.name).append(command.arity == 1 ? " <instance>" : "");
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0) continue;
      std::string item = " [";
      item.append(flag.name);
      if (!flag.metavar.empty()) item.append(" ").append(flag.metavar);
      item.append("]");
      if (line.size() + item.size() > 72) {
        out << line << "\n";
        line.assign(12, ' ');
      }
      line += item;
    }
    out << line << "\n";
  }
  print_usage_prose(out);
}

/// Parses argv against kCommands and kFlags. A rejected argument is named
/// in an `error:` line on stderr and the result is null.
const Command* parse_args(int argc, char** argv, CliArgs& args) {
  if (argc < 2) return nullptr;
  const std::string_view name = argv[1];
  const Command* command = std::ranges::find(kCommands, name, &Command::name);
  if (command == std::end(kCommands)) {
    std::cerr << "error: unknown command '" << name << "'\n";
    return nullptr;
  }
  std::size_t positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    const Flag* flag = std::ranges::find(kFlags, a, &Flag::name);
    if (flag == std::end(kFlags)) {
      if (a.empty() || a[0] == '-' || positional == command->arity) {
        std::cerr << "error: unknown or misplaced argument '" << a << "'\n";
        return nullptr;
      }
      args.instance_path = a;
      ++positional;
      continue;
    }
    if ((flag->commands & command->bit) == 0) {
      std::cerr << "error: " << a << " is not an option of " << name << "\n";
      return nullptr;
    }
    const char* value =
        flag->metavar.empty() ? "" : (++i < argc ? argv[i] : nullptr);
    if (value == nullptr || !flag->set(args, value)) {
      std::cerr << "error: " << a << " requires " << flag->requirement;
      if (value != nullptr) std::cerr << " (got '" << value << "')";
      std::cerr << "\n";
      return nullptr;
    }
  }
  // search reads its instances from the --scenarios list instead.
  const bool listed = !args.scenarios_path.empty();
  if (positional + (listed ? 1 : 0) != command->arity) {
    std::cerr << "error: " << name << " takes one <instance>"
              << (command->bit == kSearch ? " or --scenarios, not both" : "")
              << "\n";
    return nullptr;
  }
  return command;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view first = argc >= 2 ? argv[1] : "";
  if (first == "help" || first == "--help" || first == "-h") {
    print_usage(std::cout);
    return 0;
  }
  CliArgs args;
  const Command* command = parse_args(argc, argv, args);
  if (command == nullptr) {
    print_usage(std::cerr);
    return 2;
  }
  try {
    return command->run(args);
  } catch (const streamflow::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
