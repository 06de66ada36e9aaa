// Deterministic scenario corpus for the differential harness.
//
// A Scenario is one complete differential-testing input: a replicated
// mapping (drawn by model/random_instance under a regime-specific knob
// setting), a timing law family, and an execution model. Scenario k of a
// corpus is a PURE function of (corpus seed, k): its generator is
// Prng(seed).split(k), so growing the corpus never changes earlier
// scenarios (the prefix property), slices can be recomputed anywhere, and a
// divergence found at index k replays from (seed, k) alone.
//
// Regimes (cycled as k mod kNumRegimes) extend the Table 1 protocol into
// the corners the hand-built fixtures never reach:
//   baseline            — small chains, uniform times (the §7 protocol)
//   hetero-bandwidth    — per-link log-uniform bandwidth spread (x100)
//   degenerate-stages   — near-zero-cost forwarding stages (x1e-4)
//   deep-replication    — few stages, skewed teams (large R_i)
//   wide-pattern        — two stages, large u x v communication pattern
// Law families (cycled as k mod kNumCorpusLaws) cover every dist/ family,
// including the non-N.B.U.E. laws (DFR gamma, lognormal, Pareto,
// hyperexponential) for which Theorem 7's sandwich must NOT be asserted.
//
// Scenarios serialize to a line-oriented text format that embeds the
// model/serialization instance format; emit -> parse -> emit is byte-stable
// (pinned in tests/test_fuzz_corpus.cpp), which is what makes divergence
// fixtures replayable artifacts rather than screenshots.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "dist/distribution.hpp"
#include "model/mapping.hpp"
#include "model/random_instance.hpp"

namespace streamflow {

/// The knob regimes the corpus cycles through.
enum class ScenarioRegime {
  kBaseline,
  kHeteroBandwidth,
  kDegenerateStages,
  kDeepReplication,
  kWidePattern,
};

constexpr std::size_t kNumRegimes = 5;

/// Number of law families a corpus cycles through (every dist/ family).
constexpr std::size_t kNumCorpusLaws = 11;

std::string to_string(ScenarioRegime regime);

/// Parses the names produced by to_string; throws InvalidArgument.
ScenarioRegime parse_regime(const std::string& name);

/// The canonical law spec for corpus slot `index` (index mod kNumCorpusLaws).
std::string corpus_law_spec(std::size_t index);

struct CorpusOptions {
  std::uint64_t seed = 1;
  /// Cap on lcm(R_1..R_N) for every drawn mapping (keeps every analysis in
  /// the corpus cheap enough for CI).
  std::int64_t max_paths = 64;
};

/// One differential-testing input.
struct Scenario {
  /// Corpus index (or the index of the scenario a minimized fixture came
  /// from); part of the serialized form so fixtures self-describe.
  std::uint64_t id = 0;
  ScenarioRegime regime = ScenarioRegime::kBaseline;
  Mapping mapping;
  /// Timing-law family, rescaled per resource to its deterministic mean
  /// (the Fig 16/17 protocol).
  DistributionPtr law;
  ExecutionModel model = ExecutionModel::kOverlap;

  /// Short human label, e.g. "s7[deep-replication,lognormal:0,1.2]".
  std::string label() const;
};

/// Draws scenario `index` of the corpus — a pure function of
/// (options.seed, index); consults no global state.
Scenario draw_scenario(const CorpusOptions& options, std::uint64_t index);

/// The RandomInstanceOptions a regime draws its mapping with, exposed so
/// property tests can assert each regime actually produces its regime.
RandomInstanceOptions regime_instance_options(ScenarioRegime regime,
                                              Prng& prng);

/// Scenario serialization: a small header (id, regime, law, model) followed
/// by the embedded model/serialization instance block, closed by an
/// 'end-instance' line that only comments and blank lines may follow.
/// emit -> parse -> emit is byte-stable.
void save_scenario(std::ostream& os, const Scenario& scenario);
std::string scenario_to_string(const Scenario& scenario);
// lint:allow(unused-api): the fixture format's reader, kept beside its writer
Scenario scenario_from_string(std::string_view text);

}  // namespace streamflow
