// Differential cross-check harness: six independent evaluators of the
// same quantity, checked against each other over the whole scenario corpus.
//
// For every Scenario the harness cross-checks:
//   kAnalyzerCi    — the exponential column-method/CTMC analyzer
//                    (core/analyzer) falls inside the replicated-simulation
//                    Student-t 95% CI under exponential timing;
//   kNbueSandwich  — Theorem 7's ordering rho_exp <= rho <= rho_det holds
//                    for N.B.U.E. laws (skipped, by design, for the
//                    non-N.B.U.E. corpus laws — Fig 17 shows them escaping
//                    the sandwich);
//   kMaxplusBound  — the max-plus deterministic analysis (maxplus/
//                    deterministic) bounds the measured throughput from
//                    above for EVERY law (the daters are convex in the
//                    timings, so deterministic means maximize throughput);
//   kDeterminism   — a serial fold of run_greedy_restart/run_random_restart
//                    in restart order equals the parallel portfolio
//                    bit-for-bit, and the replicated simulator is
//                    bit-identical across thread counts;
//   kPrunedSearch  — the bound-screened search (BoundPolicy::kMct and
//                    kMctMaxplus) returns the same mapping, score, and
//                    evaluation count as the unscreened search, bit for bit
//                    — screens may only skip candidates that provably lose
//                    — and the prune accounting is exact: screened
//                    moves_solved + pruned equals unscreened moves_solved;
//   kSharedStore   — evaluating through a warm shared PatternStore
//                    (core/pattern_store) is bit-identical to evaluating
//                    through a context's own store: throughput, in-order
//                    rate, and every component (label, inner, effective,
//                    bottleneck flag) of the exponential analysis, plus
//                    the cache-state-invariant pattern-request total.
//                    Skipped for the Strict model (general CTMC — no
//                    pattern solves to share).
//
// Every analytic quantity flows through a HarnessHooks slot so tests can
// inject an off-by-epsilon evaluator shim and prove each check can actually
// fail (the mutation tests of tests/test_fuzz_harness.cpp — the guard
// against a vacuously green harness).
//
// A failing check is a divergence: the harness greedily minimizes the
// scenario (fuzz/minimize.hpp) while the same check keeps failing and emits
// the shrunk scenario as a replayable fixture (scenario_to_string).
//
// Determinism contract: the whole HarnessReport — every number in to_json()
// included — is a pure function of (HarnessOptions, hooks), independent of
// `threads`. Pinned by tools/fuzz_smoke.cmake and
// tests/test_fuzz_harness.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <functional>

#include "core/heuristics.hpp"
#include "fuzz/corpus.hpp"
#include "sim/pipeline_sim.hpp"

namespace streamflow {

enum class CheckId {
  kAnalyzerCi = 0,
  kNbueSandwich = 1,
  kMaxplusBound = 2,
  kDeterminism = 3,
  kPrunedSearch = 4,
  kSharedStore = 5,
};

constexpr std::size_t kNumChecks = 6;

std::string to_string(CheckId check);

enum class CheckStatus { kPass, kFail, kSkip };

std::string to_string(CheckStatus status);

struct CheckResult {
  CheckStatus status = CheckStatus::kSkip;
  /// Human diagnostic: why a check failed or was skipped (empty on pass).
  std::string detail;
};

/// Injectable evaluator slots. Null slots use the library evaluators; tests
/// override one slot with an epsilon-skewed shim to prove the paired check
/// actually detects divergence. Hooks receive the same inputs the defaults
/// consume, so a hook wrapping the default evaluator composes exactly.
struct HarnessHooks {
  /// Exponential-case analytic throughput (default:
  /// exponential_throughput(mapping, model).throughput).
  std::function<double(const Mapping&, ExecutionModel)> exponential_throughput;
  /// Deterministic analytic throughput — the max-plus bound (default:
  /// deterministic_throughput(mapping, model).throughput).
  std::function<double(const Mapping&, ExecutionModel)>
      deterministic_throughput;
  /// Applied to every per-replication simulated throughput before the CI is
  /// formed (default: identity). The mutation tests skew this to push the
  /// simulation out of the analytic bounds.
  std::function<double(double)> sim_throughput_transform;
  /// Serial search score the portfolio is compared against (default: a
  /// serial fold of run_greedy_restart/run_random_restart in restart order,
  /// with starts drawn from one Prng(options.seed)). Receives the
  /// bandwidth-completed copy of the scenario's instance that the
  /// determinism check searches (unset links go infeasible otherwise).
  std::function<double(const InstancePtr&, const MappingSearchOptions&)>
      serial_search_score;
  /// Bound-screened search score the unscreened search is compared against
  /// (default: parallel_optimize_mapping at threads = 1, with
  /// options.bounds already set to the screened policy under test). The
  /// mutation test skews this by one ulp to prove the bit-equality check
  /// catches an off-by-one-ulp bound comparison.
  std::function<double(const InstancePtr&, const MappingSearchOptions&)>
      pruned_search_score;
  /// Applied to every rate in the warm PatternStore before the shared-store
  /// check re-reads it (default: none — the store keeps the published
  /// bits). The mutation test injects a one-ulp stale-entry shim to prove
  /// the check catches a store that hands back bits a fresh solve would not
  /// produce.
  std::function<double(double)> store_rate_transform;
};

struct HarnessOptions {
  CorpusOptions corpus;
  /// Scenarios drawn: indices 0..count-1 (25 covers every regime five
  /// times and every law family at least twice — gcd(5, 11) = 1).
  std::size_t count = 25;
  /// Replications per simulation estimate (Student-t CI from common/stats).
  std::size_t replications = 8;
  /// Data sets per replication.
  std::int64_t data_sets = 6000;
  /// Worker threads for the replicated sims and the parallel search; 0 =
  /// hardware concurrency. The report does not depend on this value.
  std::size_t threads = 1;
  /// Minimize each divergence before reporting it.
  bool minimize = true;
  /// Statistical slack: a bound b and estimate (mean, hw) disagree only
  /// beyond ci_sigmas * hw + rel_slack * |b|. The relative term absorbs the
  /// finite-horizon bias of the simulators (they measure a finite window of
  /// a process that converges to the asymptotic rate).
  static constexpr double ci_sigmas = 4.0;
  static constexpr double rel_slack = 0.04;
  /// Experiment seed of the replicated simulations (distinct from the
  /// corpus seed so corpus index and replication substreams never alias).
  static constexpr std::uint64_t sim_seed = 0x5EEDF00D;

  void validate() const;
};

struct ScenarioVerdict {
  std::uint64_t id = 0;
  ScenarioRegime regime = ScenarioRegime::kBaseline;
  std::string law_spec;
  std::string label;
  std::array<CheckResult, kNumChecks> checks;
  // Observed quantities (0 when the producing check was skipped):
  double analyzer_throughput = 0.0;  ///< exponential analytic
  double det_throughput = 0.0;       ///< max-plus deterministic analytic
  double exp_sim_mean = 0.0;         ///< exponential-timing sim mean
  double exp_sim_hw = 0.0;           ///< its t 95% CI halfwidth
  double law_sim_mean = 0.0;         ///< scenario-law sim mean
  double law_sim_hw = 0.0;
};

/// A failing check, minimized and packaged for replay.
struct DivergenceRecord {
  std::uint64_t scenario_id = 0;
  CheckId check = CheckId::kAnalyzerCi;
  std::string detail;          ///< the failing check's diagnostic
  std::string original_label;  ///< label of the un-shrunk scenario
  std::size_t shrink_steps = 0;
  Scenario minimized;          ///< smallest scenario still failing `check`
  std::string fixture_text;    ///< scenario_to_string(minimized)
};

struct HarnessReport {
  std::vector<ScenarioVerdict> verdicts;
  std::vector<DivergenceRecord> divergences;
  std::size_t passes = 0;
  std::size_t fails = 0;
  std::size_t skips = 0;
  // Echo of the options that produced the report (for the JSON artifact).
  std::uint64_t corpus_seed = 0;
  std::size_t count = 0;
  std::size_t replications = 0;
  std::int64_t data_sets = 0;

  /// Status-only verdict: one line per scenario plus a summary. Contains no
  /// floating-point values, so it is bit-identical across thread counts.
  std::string digest() const;

  /// Full machine-readable report (statuses, details, observed values).
  /// Bit-identical across thread counts.
  std::string to_json() const;
};

/// Runs every check on one scenario. `check_mask` selects checks (bit i =
/// CheckId i); unselected checks come back kSkip with an empty detail.
ScenarioVerdict check_scenario(const Scenario& scenario,
                               const HarnessOptions& options,
                               const HarnessHooks& hooks = {},
                               unsigned check_mask = 0x3F);

/// True when `check` fails on `scenario` — the minimizer's oracle (runs
/// only that check).
bool check_fails(const Scenario& scenario, CheckId check,
                 const HarnessOptions& options, const HarnessHooks& hooks);

/// Draws scenarios 0..count-1, checks each, minimizes every divergence.
HarnessReport run_diff_harness(const HarnessOptions& options,
                               const HarnessHooks& hooks = {});

}  // namespace streamflow
