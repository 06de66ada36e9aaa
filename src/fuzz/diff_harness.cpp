#include "fuzz/diff_harness.hpp"

#include <cmath>
#include <sstream>

#include "common/json.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analysis_context.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "core/pattern_store.hpp"
#include "engine/parallel_search.hpp"
#include "engine/sim_replication.hpp"
#include "fuzz/minimize.hpp"
#include "maxplus/deterministic.hpp"

namespace streamflow {

namespace {

constexpr const char* kCheckNames[kNumChecks] = {
    "analyzer-ci", "nbue-sandwich", "maxplus-bound", "determinism",
    "pruned-search", "shared-store"};

/// Formats a double with round-trip precision for diagnostics and JSON.
std::string fmt(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

struct SimEstimate {
  double mean = 0.0;
  double halfwidth = 0.0;
};

/// Replicated pipeline estimate of the throughput under `timing`, with the
/// per-replication transform hook applied before the CI is formed.
SimEstimate replicated_estimate(const Mapping& mapping, ExecutionModel model,
                                const StochasticTiming& timing,
                                const HarnessOptions& options,
                                const HarnessHooks& hooks,
                                std::uint64_t seed) {
  PipelineSimOptions sim;
  sim.data_sets = options.data_sets;
  ExperimentOptions experiment;
  experiment.replications = options.replications;
  experiment.threads = options.threads;
  experiment.seed = seed;
  const ReplicatedResult result =
      run_replicated_pipeline(mapping, model, timing, sim, experiment);
  RunningStats stats;
  for (double value : result.column("throughput")) {
    stats.add(hooks.sim_throughput_transform
                  ? hooks.sim_throughput_transform(value)
                  : value);
  }
  return {stats.mean(), stats.ci95_halfwidth()};
}

/// The statistical slack around an analytic bound `b`: ci_sigmas CI
/// halfwidths plus a relative term absorbing finite-horizon simulation bias.
double slack(const HarnessOptions& options, double bound, double halfwidth) {
  return options.ci_sigmas * halfwidth + options.rel_slack * std::fabs(bound);
}

void set_pass(CheckResult& check) {
  check.status = CheckStatus::kPass;
  check.detail.clear();
}

void set_fail(CheckResult& check, const std::string& detail) {
  check.status = CheckStatus::kFail;
  check.detail = detail;
}

void set_skip(CheckResult& check, const std::string& detail) {
  check.status = CheckStatus::kSkip;
  check.detail = detail;
}

/// The corpus generator only defines bandwidths on links between
/// consecutive teams of the drawn mapping, so a mapping SEARCH over the raw
/// instance walks into unset (zero) links and goes infeasible. The
/// determinism check searches a completed copy instead: every unset link
/// gets the slowest bandwidth already present (a deterministic function of
/// the instance, so the check stays a pure function of the scenario).
InstancePtr completed_instance(const Mapping& mapping) {
  const Platform& old = mapping.platform();
  const std::size_t num_processors = old.num_processors();
  double slowest = 0.0;
  for (std::size_t p = 0; p < num_processors; ++p) {
    for (std::size_t q = p + 1; q < num_processors; ++q) {
      const double bandwidth = old.bandwidth(p, q);
      if (bandwidth > 0.0 && (slowest == 0.0 || bandwidth < slowest)) {
        slowest = bandwidth;
      }
    }
  }
  if (slowest == 0.0) slowest = 1.0;
  std::vector<double> speeds;
  speeds.reserve(num_processors);
  for (std::size_t p = 0; p < num_processors; ++p) {
    speeds.push_back(old.speed(p));
  }
  Platform platform{std::move(speeds)};
  for (std::size_t p = 0; p < num_processors; ++p) {
    for (std::size_t q = p + 1; q < num_processors; ++q) {
      const double bandwidth = old.bandwidth(p, q);
      platform.set_bandwidth(p, q, bandwidth > 0.0 ? bandwidth : slowest);
    }
  }
  Application application = mapping.application();
  return make_instance(std::move(application), std::move(platform));
}

/// The independent reference the portfolio is checked against: restart 0
/// greedy, then restarts drawn from one Prng(seed), all serially through one
/// context and folded in restart order with strict improvement.
struct SerialFold {
  double throughput = 0.0;
  std::size_t evaluations = 0;
  std::string mapping;
};

SerialFold serial_fold(const InstancePtr& instance,
                       const MappingSearchOptions& options) {
  AnalysisContext context;
  Prng draws(options.seed);
  RestartResult best = run_greedy_restart(instance, options, context);
  std::size_t evaluations = best.evaluations;
  for (std::size_t restart = 1; restart < options.restarts; ++restart) {
    RestartResult row = run_random_restart(
        instance,
        draw_restart_assignment(instance->application, instance->platform,
                                draws),
        options, context);
    evaluations += row.evaluations;
    if (row.feasible && row.score > best.score) best = std::move(row);
  }
  const auto mapping =
      realize_assignment(instance, best.assignment, options.max_paths);
  if (!mapping) throw InvalidArgument("no restart reached a feasible mapping");
  return {best.score, evaluations, mapping->to_string()};
}

/// The search the pruned-search check compares: the portfolio on the
/// calling thread.
ParallelSearchResult search_serially(const InstancePtr& instance,
                                     const MappingSearchOptions& options) {
  ParallelSearchOptions portfolio;
  portfolio.search = options;
  portfolio.threads = 1;
  return parallel_optimize_mapping(instance, portfolio);
}

}  // namespace

std::string to_string(CheckId check) {
  return kCheckNames[static_cast<std::size_t>(check)];
}

std::string to_string(CheckStatus status) {
  switch (status) {
    case CheckStatus::kPass: return "PASS";
    case CheckStatus::kFail: return "FAIL";
    case CheckStatus::kSkip: return "SKIP";
  }
  return "?";
}

void HarnessOptions::validate() const {
  SF_REQUIRE(count >= 1, "need at least one scenario");
  SF_REQUIRE(replications >= 2,
             "need at least two replications for a confidence interval");
  SF_REQUIRE(data_sets >= 10, "need at least 10 data sets per replication");
}

ScenarioVerdict check_scenario(const Scenario& scenario,
                               const HarnessOptions& options,
                               const HarnessHooks& hooks,
                               unsigned check_mask) {
  options.validate();
  ScenarioVerdict verdict;
  verdict.id = scenario.id;
  verdict.regime = scenario.regime;
  verdict.law_spec = scenario.law->spec();
  verdict.label = scenario.label();
  for (std::size_t c = 0; c < kNumChecks; ++c) {
    verdict.checks[c].status = CheckStatus::kSkip;
    verdict.checks[c].detail = "not selected";
  }
  const auto selected = [&](CheckId check) {
    return (check_mask & (1u << static_cast<unsigned>(check))) != 0;
  };
  const Mapping& mapping = scenario.mapping;
  const ExecutionModel model = scenario.model;

  // ---- Shared analytic quantities -----------------------------------------
  const bool need_exp_analytic =
      selected(CheckId::kAnalyzerCi) || selected(CheckId::kNbueSandwich);
  const bool need_det =
      selected(CheckId::kNbueSandwich) || selected(CheckId::kMaxplusBound);

  bool have_exp_analytic = false;
  std::string exp_analytic_error;
  if (need_exp_analytic) {
    try {
      verdict.analyzer_throughput =
          hooks.exponential_throughput
              ? hooks.exponential_throughput(mapping, model)
              : exponential_throughput(mapping, model).throughput;
      have_exp_analytic = true;
    } catch (const Error& error) {
      exp_analytic_error =
          std::string("exponential analysis unavailable: ") + error.what();
    }
  }
  if (need_det) {
    verdict.det_throughput =
        hooks.deterministic_throughput
            ? hooks.deterministic_throughput(mapping, model)
            : deterministic_throughput(mapping, model).throughput;
  }

  // ---- Check 1: analyzer inside the exponential-timing simulation CI ------
  if (selected(CheckId::kAnalyzerCi)) {
    CheckResult& check = verdict.checks[0];
    if (!have_exp_analytic) {
      set_skip(check, exp_analytic_error);
    } else {
      const StochasticTiming timing = StochasticTiming::exponential(mapping);
      const SimEstimate sim = replicated_estimate(
          mapping, model, timing, options, hooks, options.sim_seed);
      verdict.exp_sim_mean = sim.mean;
      verdict.exp_sim_hw = sim.halfwidth;
      const double gap = std::fabs(verdict.analyzer_throughput - sim.mean);
      const double allowed =
          slack(options, verdict.analyzer_throughput, sim.halfwidth);
      if (gap <= allowed) {
        set_pass(check);
      } else {
        set_fail(check, "analyzer " + fmt(verdict.analyzer_throughput) +
                            " vs simulated " + fmt(sim.mean) + " +/- " +
                            fmt(sim.halfwidth) + " (gap " + fmt(gap) +
                            " > allowed " + fmt(allowed) + ")");
      }
    }
  }

  // ---- Scenario-law simulation (checks 2 and 3) ---------------------------
  const bool need_law_sim =
      (selected(CheckId::kNbueSandwich) && scenario.law->is_nbue() &&
       have_exp_analytic) ||
      selected(CheckId::kMaxplusBound);
  SimEstimate law_sim;
  if (need_law_sim) {
    const StochasticTiming timing =
        StochasticTiming::scaled(mapping, *scenario.law);
    law_sim = replicated_estimate(mapping, model, timing, options, hooks,
                                  options.sim_seed + 1);
    verdict.law_sim_mean = law_sim.mean;
    verdict.law_sim_hw = law_sim.halfwidth;
  }

  // ---- Check 2: Theorem 7 sandwich for N.B.U.E. laws ----------------------
  if (selected(CheckId::kNbueSandwich)) {
    CheckResult& check = verdict.checks[1];
    if (!scenario.law->is_nbue()) {
      set_skip(check, "law " + scenario.law->spec() +
                          " is not N.B.U.E.; Theorem 7 does not apply");
    } else if (!have_exp_analytic) {
      set_skip(check, exp_analytic_error);
    } else {
      const double lower = verdict.analyzer_throughput;
      const double upper = verdict.det_throughput;
      const double below =
          (lower - law_sim.mean) - slack(options, lower, law_sim.halfwidth);
      const double above =
          (law_sim.mean - upper) - slack(options, upper, law_sim.halfwidth);
      if (below <= 0.0 && above <= 0.0) {
        set_pass(check);
      } else {
        set_fail(check, "simulated " + fmt(law_sim.mean) + " +/- " +
                            fmt(law_sim.halfwidth) +
                            " escapes the sandwich [" + fmt(lower) + ", " +
                            fmt(upper) + "]");
      }
    }
  }

  // ---- Check 3: max-plus deterministic bound from above -------------------
  if (selected(CheckId::kMaxplusBound)) {
    CheckResult& check = verdict.checks[2];
    const double upper = verdict.det_throughput;
    const double excess =
        (law_sim.mean - upper) - slack(options, upper, law_sim.halfwidth);
    if (excess <= 0.0) {
      set_pass(check);
    } else {
      set_fail(check, "simulated " + fmt(law_sim.mean) + " +/- " +
                          fmt(law_sim.halfwidth) +
                          " exceeds the deterministic bound " + fmt(upper));
    }
  }

  // ---- Check 4: serial/parallel search + simulation determinism -----------
  if (selected(CheckId::kDeterminism)) {
    CheckResult& check = verdict.checks[3];
    std::string failure;

    // (a) Serial restart fold == parallel portfolio, bit for bit.
    MappingSearchOptions search;
    search.model = model;
    search.objective = model == ExecutionModel::kStrict
                           ? MappingObjective::kDeterministic
                           : MappingObjective::kExponential;
    search.restarts = 2;
    search.max_paths = options.corpus.max_paths;
    search.seed = 1;
    ParallelSearchOptions portfolio;
    portfolio.search = search;
    portfolio.threads = options.threads;
    const InstancePtr searchable = completed_instance(mapping);
    const ParallelSearchResult parallel =
        parallel_optimize_mapping(searchable, portfolio);
    if (hooks.serial_search_score) {
      const double serial_score =
          hooks.serial_search_score(searchable, search);
      if (serial_score != parallel.throughput) {
        failure = "serial search score " + fmt(serial_score) +
                  " != parallel portfolio score " + fmt(parallel.throughput);
      }
    } else {
      const SerialFold serial = serial_fold(searchable, search);
      if (serial.throughput != parallel.throughput ||
          serial.evaluations != parallel.evaluations ||
          serial.mapping != parallel.mapping.to_string()) {
        failure = "serial search (score " + fmt(serial.throughput) + ", " +
                  std::to_string(serial.evaluations) +
                  " evaluations) != parallel portfolio (score " +
                  fmt(parallel.throughput) + ", " +
                  std::to_string(parallel.evaluations) + " evaluations)";
      }
    }

    // (b) Replicated simulation bit-identical across thread counts. Small
    // fixed sizes: this is a bit comparison, not an estimate, so statistical
    // resolution is irrelevant.
    if (failure.empty()) {
      const StochasticTiming timing = StochasticTiming::exponential(mapping);
      PipelineSimOptions sim;
      sim.data_sets = std::min<std::int64_t>(options.data_sets, 2000);
      ExperimentOptions one, two;
      one.replications = two.replications =
          std::min<std::size_t>(options.replications, 4);
      one.seed = two.seed = options.sim_seed + 2;
      one.threads = 1;
      two.threads = 2;
      const ReplicatedResult a =
          run_replicated_pipeline(mapping, model, timing, sim, one);
      const ReplicatedResult b =
          run_replicated_pipeline(mapping, model, timing, sim, two);
      if (a.per_replication != b.per_replication) {
        failure = "replicated simulation differs between 1 and 2 threads";
      }
    }

    if (failure.empty()) {
      set_pass(check);
    } else {
      set_fail(check, failure);
    }
  }

  // ---- Check 5: bound-screened search == unscreened search, bit for bit ---
  if (selected(CheckId::kPrunedSearch)) {
    CheckResult& check = verdict.checks[4];
    MappingSearchOptions search;
    search.model = model;
    search.objective = model == ExecutionModel::kStrict
                           ? MappingObjective::kDeterministic
                           : MappingObjective::kExponential;
    search.restarts = 2;
    search.max_paths = options.corpus.max_paths;
    search.seed = 1;
    const InstancePtr searchable = completed_instance(mapping);
    const ParallelSearchResult reference = search_serially(searchable, search);
    std::string failure;
    for (const BoundPolicy policy :
         {BoundPolicy::kMct, BoundPolicy::kMctMaxplus}) {
      MappingSearchOptions screened = search;
      screened.bounds = policy;
      const char* name = policy == BoundPolicy::kMct ? "mct" : "mct+maxplus";
      if (hooks.pruned_search_score) {
        const double score = hooks.pruned_search_score(searchable, screened);
        if (score != reference.throughput) {
          failure = std::string("screened search (") + name + ") score " +
                    fmt(score) + " != unscreened score " +
                    fmt(reference.throughput);
          break;
        }
        continue;
      }
      const ParallelSearchResult pruned = search_serially(searchable, screened);
      if (pruned.throughput != reference.throughput ||
          pruned.evaluations != reference.evaluations ||
          pruned.mapping.to_string() != reference.mapping.to_string()) {
        failure = std::string("screened search (") + name + ") score " +
                  fmt(pruned.throughput) + " / " +
                  std::to_string(pruned.evaluations) +
                  " evaluations != unscreened " + fmt(reference.throughput) +
                  " / " + std::to_string(reference.evaluations);
        break;
      }
      const std::size_t probes = pruned.moves_solved + pruned.moves_pruned_mct +
                                 pruned.moves_pruned_maxplus;
      if (probes != reference.moves_solved) {
        failure = std::string("screened search (") + name +
                  ") accounting: solved+pruned = " + std::to_string(probes) +
                  " != unscreened solved " +
                  std::to_string(reference.moves_solved);
        break;
      }
    }
    if (failure.empty()) {
      set_pass(check);
    } else {
      set_fail(check, failure);
    }
  }

  // ---- Check 6: warm shared PatternStore == a context's own store ---------
  if (selected(CheckId::kSharedStore)) {
    CheckResult& check = verdict.checks[5];
    if (model == ExecutionModel::kStrict) {
      set_skip(check,
               "strict model evaluates via the general CTMC; no pattern "
               "solves to share");
    } else {
      try {
        // Reference: no store attached, so the context reads its own.
        AnalysisContext cold;
        const ExponentialThroughput reference =
            cold.exponential(mapping, model);
        const std::size_t cold_requests =
            cold.stats().pattern_hits + cold.stats().pattern_misses;
        // Warm a shared store through one context, then re-evaluate through
        // a second context that sees the first one's solves as store hits.
        PatternStore store;
        AnalysisContext warmer;
        warmer.set_pattern_store(&store);
        (void)warmer.exponential(mapping, model);
        if (hooks.store_rate_transform) {
          store.transform_rates(hooks.store_rate_transform);
        }
        std::string failure;
        try {
          AnalysisContext reader;
          reader.set_pattern_store(&store);
          const ExponentialThroughput warmed =
              reader.exponential(mapping, model);
          const std::size_t warm_requests =
              reader.stats().pattern_hits + reader.stats().pattern_misses;
          if (warmed.throughput != reference.throughput ||
              warmed.in_order_throughput != reference.in_order_throughput) {
            failure = "warm-store throughput " + fmt(warmed.throughput) +
                      " / " + fmt(warmed.in_order_throughput) + " != cold " +
                      fmt(reference.throughput) + " / " +
                      fmt(reference.in_order_throughput);
          } else if (warm_requests != cold_requests) {
            failure = "warm-store pattern requests " +
                      std::to_string(warm_requests) + " != cold " +
                      std::to_string(cold_requests) +
                      " (request totals must be cache-state invariant)";
          } else if (warmed.components.size() != reference.components.size()) {
            failure = "warm-store component count " +
                      std::to_string(warmed.components.size()) + " != cold " +
                      std::to_string(reference.components.size());
          } else {
            for (std::size_t k = 0; k < reference.components.size(); ++k) {
              const ComponentInfo& a = reference.components[k];
              const ComponentInfo& b = warmed.components[k];
              if (a.label != b.label || a.inner != b.inner ||
                  a.effective != b.effective || a.bottleneck != b.bottleneck) {
                failure = "warm-store component '" + b.label + "' (inner " +
                          fmt(b.inner) + ", effective " + fmt(b.effective) +
                          ") != cold '" + a.label + "' (inner " + fmt(a.inner) +
                          ", effective " + fmt(a.effective) + ")";
                break;
              }
            }
          }
        } catch (const Error& error) {
          // In Debug the sampled re-solve probe inside AnalysisContext
          // throws on a stale store entry — that is a detection, not an
          // infrastructure failure.
          failure = std::string("warm-store evaluation failed: ") +
                    error.what();
        }
        if (failure.empty()) {
          set_pass(check);
        } else {
          set_fail(check, failure);
        }
      } catch (const Error& error) {
        set_skip(check, std::string("exponential analysis unavailable: ") +
                            error.what());
      }
    }
  }

  return verdict;
}

bool check_fails(const Scenario& scenario, CheckId check,
                 const HarnessOptions& options, const HarnessHooks& hooks) {
  const ScenarioVerdict verdict = check_scenario(
      scenario, options, hooks, 1u << static_cast<unsigned>(check));
  return verdict.checks[static_cast<std::size_t>(check)].status ==
         CheckStatus::kFail;
}

HarnessReport run_diff_harness(const HarnessOptions& options,
                               const HarnessHooks& hooks) {
  options.validate();
  HarnessReport report;
  report.corpus_seed = options.corpus.seed;
  report.count = options.count;
  report.replications = options.replications;
  report.data_sets = options.data_sets;
  report.verdicts.reserve(options.count);

  for (std::uint64_t index = 0; index < options.count; ++index) {
    const Scenario scenario = draw_scenario(options.corpus, index);
    ScenarioVerdict verdict = check_scenario(scenario, options, hooks);
    for (std::size_t c = 0; c < kNumChecks; ++c) {
      switch (verdict.checks[c].status) {
        case CheckStatus::kPass: ++report.passes; break;
        case CheckStatus::kFail: ++report.fails; break;
        case CheckStatus::kSkip: ++report.skips; break;
      }
      if (verdict.checks[c].status != CheckStatus::kFail) continue;
      const CheckId check = static_cast<CheckId>(c);
      DivergenceRecord record{scenario.id,
                              check,
                              verdict.checks[c].detail,
                              scenario.label(),
                              0,
                              scenario,
                              {}};
      if (options.minimize) {
        record.minimized = minimize_divergence(scenario, check, options,
                                               hooks, &record.shrink_steps);
      }
      record.fixture_text = scenario_to_string(record.minimized);
      report.divergences.push_back(std::move(record));
    }
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

std::string HarnessReport::digest() const {
  std::ostringstream os;
  os << "diff-harness seed=" << corpus_seed << " count=" << count << "\n";
  for (const ScenarioVerdict& verdict : verdicts) {
    os << "s" << verdict.id << " " << to_string(verdict.regime) << " "
       << verdict.law_spec;
    for (std::size_t c = 0; c < kNumChecks; ++c) {
      os << " " << to_string(static_cast<CheckId>(c)) << "="
         << to_string(verdict.checks[c].status);
    }
    os << "\n";
  }
  os << "summary pass=" << passes << " fail=" << fails << " skip=" << skips
     << " divergences=" << divergences.size() << "\n";
  return os.str();
}

std::string HarnessReport::to_json() const {
  std::vector<std::string> scenarios;
  scenarios.reserve(verdicts.size());
  for (const ScenarioVerdict& verdict : verdicts) {
    JsonWriter checks;
    for (std::size_t c = 0; c < kNumChecks; ++c) {
      checks.raw_field(to_string(static_cast<CheckId>(c)),
                       JsonWriter()
                           .string_field("status",
                                         to_string(verdict.checks[c].status))
                           .string_field("detail", verdict.checks[c].detail)
                           .str());
    }
    scenarios.push_back(
        JsonWriter()
            .integer_field("id", verdict.id)
            .string_field("regime", to_string(verdict.regime))
            .string_field("law", verdict.law_spec)
            .number_field("analyzer_throughput", verdict.analyzer_throughput)
            .number_field("det_throughput", verdict.det_throughput)
            .number_field("exp_sim_mean", verdict.exp_sim_mean)
            .number_field("exp_sim_hw", verdict.exp_sim_hw)
            .number_field("law_sim_mean", verdict.law_sim_mean)
            .number_field("law_sim_hw", verdict.law_sim_hw)
            .raw_field("checks", checks.str())
            .str());
  }
  std::vector<std::string> records;
  records.reserve(divergences.size());
  for (const DivergenceRecord& record : divergences) {
    records.push_back(JsonWriter()
                          .integer_field("scenario", record.scenario_id)
                          .string_field("check", to_string(record.check))
                          .string_field("detail", record.detail)
                          .string_field("original", record.original_label)
                          .integer_field("shrink_steps", record.shrink_steps)
                          .string_field("fixture", record.fixture_text)
                          .str());
  }
  const std::string summary = JsonWriter()
                                  .integer_field("pass", passes)
                                  .integer_field("fail", fails)
                                  .integer_field("skip", skips)
                                  .integer_field("divergences",
                                                 divergences.size())
                                  .str();
  return JsonWriter()
             .integer_field("corpus_seed", corpus_seed)
             .integer_field("count", count)
             .integer_field("replications", replications)
             .integer_field("data_sets",
                            static_cast<std::uint64_t>(data_sets))
             .raw_field("summary", summary)
             .array_field("scenarios", scenarios)
             .array_field("divergences", records)
             .str() +
         "\n";
}

}  // namespace streamflow
