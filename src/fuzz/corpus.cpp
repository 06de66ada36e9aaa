#include "fuzz/corpus.hpp"

#include <array>
#include <optional>
#include <sstream>

#include "common/text_reader.hpp"
#include "model/serialization.hpp"

namespace streamflow {

namespace {

constexpr const char* kRegimeNames[kNumRegimes] = {
    "baseline", "hetero-bandwidth", "degenerate-stages", "deep-replication",
    "wide-pattern"};

constexpr const char* kLawSpecs[kNumCorpusLaws] = {
    "const:1",        "exp:1",          "uniform:0.5,1.5", "gauss:10,3",
    "gamma:2,0.5",    "beta:2,2,2",     "weibull:1.5,1",   "gamma:0.5,2",
    "lognormal:0,1.2", "pareto:2.5,1",  "hyperexp:0.5,4,0.4"};

std::string model_token(ExecutionModel model) {
  return model == ExecutionModel::kOverlap ? "overlap" : "strict";
}

ExecutionModel parse_model_token(const std::string& token) {
  if (token == "overlap") return ExecutionModel::kOverlap;
  if (token == "strict") return ExecutionModel::kStrict;
  throw InvalidArgument("unknown execution model '" + token + "'");
}

}  // namespace

std::string to_string(ScenarioRegime regime) {
  return kRegimeNames[static_cast<std::size_t>(regime)];
}

ScenarioRegime parse_regime(const std::string& name) {
  for (std::size_t r = 0; r < kNumRegimes; ++r) {
    if (name == kRegimeNames[r]) return static_cast<ScenarioRegime>(r);
  }
  throw InvalidArgument("unknown scenario regime '" + name + "'");
}

std::string corpus_law_spec(std::size_t index) {
  return kLawSpecs[index % kNumCorpusLaws];
}

std::string Scenario::label() const {
  std::ostringstream os;
  os << 's' << id << '[' << to_string(regime) << ',' << law->spec() << ']';
  return os.str();
}

RandomInstanceOptions regime_instance_options(ScenarioRegime regime,
                                              Prng& prng) {
  RandomInstanceOptions options;
  switch (regime) {
    case ScenarioRegime::kBaseline:
      options.num_stages = 2 + prng.uniform_index(4);       // 2..5
      options.num_processors =
          options.num_stages + prng.uniform_index(7);       // +0..6
      break;
    case ScenarioRegime::kHeteroBandwidth:
      options.num_stages = 2 + prng.uniform_index(4);
      options.num_processors = options.num_stages + prng.uniform_index(7);
      options.bandwidth_heterogeneity = 100.0;
      break;
    case ScenarioRegime::kDegenerateStages:
      options.num_stages = 3 + prng.uniform_index(3);       // 3..5
      options.num_processors = options.num_stages + prng.uniform_index(7);
      options.zero_cost_fraction = 0.5;
      options.degenerate_scale = 1e-4;
      break;
    case ScenarioRegime::kDeepReplication:
      options.num_stages = 2 + prng.uniform_index(2);       // 2..3
      options.num_processors =
          options.num_stages + 4 + prng.uniform_index(6);   // up to 13
      options.team_skew = 3.0;
      break;
    case ScenarioRegime::kWidePattern:
      // Two stages, a single costly u x v communication pattern: faster
      // computations keep the pattern the bottleneck (the §7.4 workload).
      options.num_stages = 2;
      options.num_processors = 6 + prng.uniform_index(7);   // 6..12
      options.comp_min = 0.5;
      options.comp_max = 1.5;
      break;
  }
  return options;
}

Scenario draw_scenario(const CorpusOptions& options, std::uint64_t index) {
  // split(index) is a pure function of (seed state, index): scenario k
  // never depends on how many other scenarios were drawn.
  Prng prng = Prng(options.seed).split(index);
  const ScenarioRegime regime =
      static_cast<ScenarioRegime>(index % kNumRegimes);
  RandomInstanceOptions instance_options =
      regime_instance_options(regime, prng);
  instance_options.max_paths = options.max_paths;

  Mapping mapping = random_instance(instance_options, prng);
  if (regime == ScenarioRegime::kWidePattern) {
    // The uniform composition happily draws (1, M-1); redraw (from the same
    // stream, still deterministic) until the pattern is genuinely wide.
    for (int attempt = 0;
         attempt < 200 &&
         (mapping.replication(0) < 3 || mapping.replication(1) < 3);
         ++attempt) {
      mapping = random_instance(instance_options, prng);
    }
  }

  Scenario scenario{index, regime, std::move(mapping),
                    parse_distribution(corpus_law_spec(index)),
                    ExecutionModel::kOverlap};
  return scenario;
}

void save_scenario(std::ostream& os, const Scenario& scenario) {
  os << "streamflow-scenario v1\n";
  os << "id " << scenario.id << "\n";
  os << "regime " << to_string(scenario.regime) << "\n";
  os << "law " << scenario.law->spec() << "\n";
  os << "model " << model_token(scenario.model) << "\n";
  os << "instance\n";
  save_instance(os, scenario.mapping);
  os << "end-instance\n";
}

std::string scenario_to_string(const Scenario& scenario) {
  std::ostringstream os;
  save_scenario(os, scenario);
  return os.str();
}

Scenario scenario_from_string(std::string_view text) {
  TextReader reader(text, "scenario");
  if (!reader.next_line() || !reader.line().starts_with("streamflow-scenario"))
    reader.fail("missing 'streamflow-scenario v1' header");

  std::optional<std::uint64_t> id;
  std::string_view regime_name, law_spec, model_name;
  for (std::string_view keyword; keyword != "instance";) {
    if (!reader.next_line()) reader.fail("unexpected end of input");
    keyword = reader.token();
    if (keyword == "id") {
      id = reader.number<std::uint64_t>("id");
    } else if (keyword != "instance") {
      std::string_view* value = keyword == "regime"  ? &regime_name
                                : keyword == "law"   ? &law_spec
                                : keyword == "model" ? &model_name
                                                     : nullptr;
      if (value == nullptr)
        reader.fail("unknown keyword '" + std::string(keyword) + "'");
      *value = reader.token();
    }
    reader.expect_line_end(keyword);
  }
  if (!id || regime_name.empty() || law_spec.empty() || model_name.empty())
    reader.fail("missing id/regime/law/model before the instance block");

  // The instance block runs up to the 'end-instance' line and goes to
  // model/serialization whole (the instance parser owns its own grammar).
  const std::size_t block_begin = reader.offset();
  std::size_t block_end = block_begin;
  while (reader.line() != "end-instance") {
    block_end = reader.offset();
    if (!reader.next_line()) reader.fail("missing 'end-instance'");
  }
  if (reader.next_line()) reader.fail("content after 'end-instance'");

  Scenario scenario{*id, parse_regime(std::string(regime_name)),
                    instance_from_string(
                        text.substr(block_begin, block_end - block_begin)),
                    parse_distribution(law_spec),
                    parse_model_token(std::string(model_name))};
  return scenario;
}

}  // namespace streamflow
