#include "engine/experiment_runner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "engine/stream_factory.hpp"
#include "engine/thread_pool.hpp"

namespace streamflow {

void ExperimentOptions::validate() const {
  SF_REQUIRE(replications >= 1, "need at least one replication");
}

namespace {

std::size_t metric_index(const std::vector<std::string>& names,
                         const std::string& name) {
  for (std::size_t m = 0; m < names.size(); ++m)
    if (names[m] == name) return m;
  throw InvalidArgument("unknown metric '" + name + "'");
}

}  // namespace

const MetricSummary& ReplicatedResult::metric(const std::string& name) const {
  return summaries[metric_index(metric_names, name)];
}

std::vector<double> ReplicatedResult::column(const std::string& name) const {
  const std::size_t index = metric_index(metric_names, name);
  std::vector<double> values;
  values.reserve(per_replication.size());
  for (const std::vector<double>& row : per_replication)
    values.push_back(row[index]);
  return values;
}

ExperimentRunner::ExperimentRunner(ExperimentOptions options)
    : options_(options) {
  options_.validate();
}

ReplicatedResult ExperimentRunner::run(
    const std::vector<std::string>& metric_names,
    const ReplicationBody& body) const {
  SF_REQUIRE(!metric_names.empty(), "experiment declares no metrics");
  SF_REQUIRE(static_cast<bool>(body), "experiment body is empty");
  const std::size_t r = options_.replications;

  // Substreams are materialized serially up front (StreamFactory is not
  // thread-safe); each is a self-contained Prng afterwards.
  StreamFactory factory(options_.seed);
  std::vector<Prng> streams;
  streams.reserve(r);
  for (std::size_t k = 0; k < r; ++k) streams.push_back(factory.stream(k));

  std::vector<std::vector<double>> rows(r);
  ThreadPool pool(std::min(resolve_threads(options_.threads), r));
  pool.for_each(r, [&](std::size_t, std::size_t k) {
    rows[k] = body(streams[k], k);
  });

  ReplicatedResult result;
  result.metric_names = metric_names;
  result.replications = r;
  result.threads_used = pool.size();
  result.seed = options_.seed;
  for (std::size_t k = 0; k < r; ++k) {
    SF_REQUIRE(rows[k].size() == metric_names.size(),
               "replication body returned a row of the wrong width");
  }
  result.per_replication = std::move(rows);
  result.summaries.reserve(metric_names.size());
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    RunningStats stats;
    for (const std::vector<double>& row : result.per_replication)
      stats.add(row[m]);
    MetricSummary summary;
    summary.name = metric_names[m];
    summary.mean = stats.mean();
    summary.stddev = stats.stddev();
    summary.ci95_halfwidth = stats.ci95_halfwidth();
    summary.min = stats.min();
    summary.max = stats.max();
    result.summaries.push_back(std::move(summary));
  }
  return result;
}

}  // namespace streamflow
