// Parallel Monte-Carlo experiment engine.
//
// An experiment is R independent replications of a stochastic simulation.
// Replication k is driven exclusively by PRNG substream k of the experiment
// seed (StreamFactory, 2^128 draws apart), computed on a fixed-size thread
// pool and aggregated serially in replication order — so the result is
// bit-identical for ANY thread count, including 1, and across machines. This
// turns the paper's single-run §7 protocol into one with honest statistics:
// every metric gets a mean, sample stddev, 95% CI, min/max, and the full
// per-replication table.
//
// Thread safety: an ExperimentRunner is immutable after construction and
// run() is const and re-entrant — concurrent run() calls from different
// threads are fine (each runs its own pool). The replication body runs
// concurrently with itself: it must confine writes to its own row and may
// share only immutable state across replications.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/prng.hpp"

namespace streamflow {

struct ExperimentOptions {
  /// Number of independent replications R.
  std::size_t replications = 16;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Experiment seed: replication k consumes substream k of this seed.
  std::uint64_t seed = 42;

  /// Throws InvalidArgument on nonsensical settings.
  void validate() const;
};

/// Aggregate of one metric across replications (normal-theory 95% CI from
/// common/stats' RunningStats).
struct MetricSummary {
  std::string name;
  double mean = 0.0;
  double stddev = 0.0;          ///< sample (n-1) standard deviation
  double ci95_halfwidth = 0.0;  ///< infinity when replications < 2
  double min = 0.0;
  double max = 0.0;
};

/// Result of a replicated experiment: one MetricSummary per metric plus the
/// per-replication table (row k = the metrics of replication k, in the order
/// the experiment declared them).
struct ReplicatedResult {
  std::vector<std::string> metric_names;
  std::vector<std::vector<double>> per_replication;  ///< [replication][metric]
  std::vector<MetricSummary> summaries;              ///< aligned with names
  std::size_t replications = 0;
  std::size_t threads_used = 0;
  std::uint64_t seed = 0;

  /// Summary of the named metric; throws InvalidArgument if unknown.
  const MetricSummary& metric(const std::string& name) const;

  /// Column of the named metric across replications, in replication order.
  std::vector<double> column(const std::string& name) const;
};

/// Runs one replication: fills one metric vector (same length and order as
/// the declared metric names) from the dedicated substream `prng`.
using ReplicationBody =
    std::function<std::vector<double>(Prng& prng, std::size_t replication)>;

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentOptions options = {});

  /// Fans the body out over options.replications substreams through
  /// ThreadPool::for_each. Each replication writes only its own row and the
  /// aggregation runs serially in row order, so the returned
  /// ReplicatedResult is a pure function of (seed, replications, body).
  /// When the body throws, the exception of the lowest failing replication
  /// is rethrown here, whatever the thread count.
  ReplicatedResult run(const std::vector<std::string>& metric_names,
                       const ReplicationBody& body) const;

 private:
  ExperimentOptions options_;
};

}  // namespace streamflow
