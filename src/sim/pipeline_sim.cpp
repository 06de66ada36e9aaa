#include "sim/pipeline_sim.hpp"

#include <algorithm>
#include <limits>
#include <functional>
#include <vector>

#include "common/prng.hpp"

namespace streamflow {

namespace {

/// Rolling history of the last `window` values of a per-stage event series.
class History {
 public:
  explicit History(std::size_t window) : values_(std::max<std::size_t>(window, 1), 0.0) {}

  /// Value for data set n - back, where back <= window; data sets before the
  /// first one are "ready at time 0".
  double get(std::int64_t n, std::int64_t back) const {
    const std::int64_t idx = n - back;
    if (idx < 0) return 0.0;
    return values_[static_cast<std::size_t>(idx) % values_.size()];
  }

  void set(std::int64_t n, double value) {
    values_[static_cast<std::size_t>(n) % values_.size()] = value;
  }

 private:
  std::vector<double> values_;
};

/// Type-erased sampler for the associated case, whose association
/// multipliers are drawn once per data set, not once per time.
struct Sampler {
  /// comp(i, n): computation time of stage i for data set n;
  /// comm(i, n): transfer time of file F_i for data set n.
  std::function<double(std::size_t, std::int64_t)> comp;
  std::function<double(std::size_t, std::int64_t)> comm;
};

/// Independent-case fast path: one BatchSampler per (stage, team member)
/// compute unit — the member's law is fixed, so inversion families get the
/// vectorized transform — and one BufferedPrng per link, sampled per draw
/// because the (sender, receiver) law varies with the round-robin phase.
/// Stream indices are assigned in a fixed enumeration order (all compute
/// units stage-major, then links), so results depend only on (inputs, seed).
struct BatchedTimingSampler {
  BatchedTimingSampler(const Mapping& mapping, const StochasticTiming& timing,
                       const Prng& root, const PipelineSimOptions& options)
      : mapping_(mapping), timing_(timing) {
    const std::size_t n_stages = mapping.num_stages();
    std::size_t total_members = 0;
    comp_offset_.reserve(n_stages);
    for (std::size_t i = 0; i < n_stages; ++i) {
      comp_offset_.push_back(total_members);
      total_members += mapping.team(i).size();
    }
    const std::size_t n_links = n_stages > 1 ? n_stages - 1 : 0;
    const std::size_t block = pick_block_draws(
        total_members + n_links, static_cast<std::size_t>(options.data_sets));
    comp_samplers_.reserve(total_members);
    std::size_t stream = 0;
    for (std::size_t i = 0; i < n_stages; ++i) {
      for (const std::size_t p : mapping.team(i)) {
        comp_samplers_.emplace_back(timing.comp(p), root.split(stream++),
                                    options.refill_isa, block);
      }
    }
    comm_streams_.reserve(n_links);
    for (std::size_t i = 0; i < n_links; ++i) {
      comm_streams_.emplace_back(root.split(stream++), options.refill_isa,
                                 block);
    }
  }

  double comp(std::size_t i, std::int64_t n) {
    const auto& team = mapping_.team(i);
    const auto member = static_cast<std::size_t>(
        n % static_cast<std::int64_t>(team.size()));
    return comp_samplers_[comp_offset_[i] + member].next();
  }

  double comm(std::size_t i, std::int64_t n) {
    const auto& senders = mapping_.team(i);
    const auto& receivers = mapping_.team(i + 1);
    const std::size_t p = senders[static_cast<std::size_t>(
        n % static_cast<std::int64_t>(senders.size()))];
    const std::size_t q = receivers[static_cast<std::size_t>(
        n % static_cast<std::int64_t>(receivers.size()))];
    return timing_.comm(p, q)->sample(comm_streams_[i]);
  }

 private:
  const Mapping& mapping_;
  const StochasticTiming& timing_;
  std::vector<std::size_t> comp_offset_;
  std::vector<BatchSampler> comp_samplers_;
  std::vector<BufferedPrng> comm_streams_;
};

template <typename SamplerT>
PipelineSimResult run(const Mapping& mapping, ExecutionModel model,
                      SamplerT& sampler,
                      const PipelineSimOptions& options) {
  options.validate();

  const std::size_t n_stages = mapping.num_stages();
  std::vector<std::int64_t> r(n_stages);
  for (std::size_t i = 0; i < n_stages; ++i)
    r[i] = static_cast<std::int64_t>(mapping.replication(i));

  // comp_done[i]: completion of stage i's computation for data set n.
  // xfer_done[i]: completion of file F_i's transfer for data set n.
  std::vector<History> comp_done;
  std::vector<History> xfer_done;
  comp_done.reserve(n_stages);
  for (std::size_t i = 0; i < n_stages; ++i) {
    comp_done.emplace_back(static_cast<std::size_t>(r[i]) + 1);
  }
  xfer_done.reserve(n_stages);
  for (std::size_t i = 0; i + 1 < n_stages; ++i) {
    xfer_done.emplace_back(
        static_cast<std::size_t>(std::max(r[i], r[i + 1])) + 1);
  }

  const std::int64_t warmup = static_cast<std::int64_t>(
      options.warmup_fraction * static_cast<double>(options.data_sets));
  // Replicas of the last stage can complete at different asymptotic rates
  // (no downstream round-robin constrains them), so throughput is measured
  // per last-stage member and summed.
  const std::int64_t r_last = r[n_stages - 1];
  SF_REQUIRE(options.data_sets - warmup >= 2 * r_last,
             "need at least two measured completions per last-stage member");
  std::vector<double> member_start(static_cast<std::size_t>(r_last), 0.0);
  std::vector<double> member_end(static_cast<std::size_t>(r_last), 0.0);
  std::vector<std::int64_t> member_count(static_cast<std::size_t>(r_last), 0);
  double last_completion = 0.0;
  double latency_sum = 0.0;
  double latency_max = 0.0;
  std::int64_t latency_count = 0;

  for (std::int64_t n = 0; n < options.data_sets; ++n) {
    double first_start = 0.0;
    for (std::size_t i = 0; i < n_stages; ++i) {
      // --- computation of stage i for data set n ------------------------
      double ready = 0.0;
      if (i > 0) ready = xfer_done[i - 1].get(n, 0);  // its input arrived
      if (model == ExecutionModel::kOverlap) {
        // The compute unit is serial across the processor's occurrences.
        ready = std::max(ready, comp_done[i].get(n, r[i]));
      } else if (i == 0) {
        // Strict, first stage: compute(n) waits for the processor's
        // previous full cycle, which ends with its send (or its compute if
        // there is no send).
        const double prev_cycle = (n_stages > 1)
                                      ? xfer_done[0].get(n, r[0])
                                      : comp_done[0].get(n, r[0]);
        ready = std::max(ready, prev_cycle);
      }
      // Strict, i > 0: the receive (transfer) already serialized the cycle.
      if (i == 0) first_start = ready;
      comp_done[i].set(n, ready + sampler.comp(i, n));

      // --- transfer of file F_i for data set n --------------------------
      if (i + 1 < n_stages) {
        double xfer_ready = comp_done[i].get(n, 0);
        if (model == ExecutionModel::kOverlap) {
          // Sender's output port and receiver's input port are serial.
          xfer_ready = std::max(xfer_ready, xfer_done[i].get(n, r[i]));
          xfer_ready = std::max(xfer_ready, xfer_done[i].get(n, r[i + 1]));
        } else {
          // Strict: the receiver must have finished its previous full
          // cycle (which ends with its own send, or compute at the last
          // stage) before accepting this file.
          const double receiver_prev =
              (i + 2 < n_stages) ? xfer_done[i + 1].get(n, r[i + 1])
                                 : comp_done[i + 1].get(n, r[i + 1]);
          xfer_ready = std::max(xfer_ready, receiver_prev);
        }
        xfer_done[i].set(n, xfer_ready + sampler.comm(i, n));
      }
    }
    const double done = comp_done[n_stages - 1].get(n, 0);
    const auto member = static_cast<std::size_t>(n % r_last);
    if (n < warmup) {
      member_start[member] = done;  // keeps the last pre-warmup completion
    } else {
      member_end[member] = done;
      ++member_count[member];
      const double latency = done - first_start;
      latency_sum += latency;
      latency_max = std::max(latency_max, latency);
      ++latency_count;
    }
    last_completion = std::max(last_completion, done);
  }

  PipelineSimResult result;
  result.makespan = last_completion;
  double min_member_rate = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < static_cast<std::size_t>(r_last); ++k) {
    const double span = member_end[k] - member_start[k];
    SF_ASSERT(span > 0.0, "empty measurement window");
    const double rate = static_cast<double>(member_count[k]) / span;
    result.completed += member_count[k];
    result.throughput += rate;
    min_member_rate = std::min(min_member_rate, rate);
    result.elapsed = std::max(result.elapsed, span);
  }
  result.in_order_throughput =
      min_member_rate * static_cast<double>(r_last);
  if (latency_count > 0) {
    result.mean_latency = latency_sum / static_cast<double>(latency_count);
    result.max_latency = latency_max;
  }
  return result;
}

}  // namespace

void PipelineSimOptions::validate() const {
  SF_REQUIRE(data_sets >= 10, "need at least 10 data sets");
  SF_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
}

PipelineSimResult simulate_pipeline(const Mapping& mapping,
                                    ExecutionModel model,
                                    const StochasticTiming& timing, Prng& prng,
                                    const PipelineSimOptions& options) {
  options.validate();
  // Per-resource substreams split from the stream's entry state; the
  // parent advances exactly one draw so back-to-back simulations on the
  // same injected stream see fresh substream families.
  const Prng root = prng;
  (void)prng();
  BatchedTimingSampler sampler(mapping, timing, root, options);
  return run(mapping, model, sampler, options);
}

PipelineSimResult simulate_pipeline(const Mapping& mapping,
                                    ExecutionModel model,
                                    const StochasticTiming& timing,
                                    const PipelineSimOptions& options) {
  Prng prng(options.seed);
  return simulate_pipeline(mapping, model, timing, prng, options);
}

PipelineSimResult simulate_pipeline_associated(
    const Mapping& mapping, ExecutionModel model, const Distribution& size_law,
    Prng& prng, const PipelineSimOptions& options, AssociationScope scope) {
  options.validate();
  const DistributionPtr unit_law = size_law.with_mean(1.0);
  const std::size_t n_stages = mapping.num_stages();

  // kPerDataSet: ONE multiplier per data set drives every time along its
  // path (§6.2: the data set's size). kPerStage: independent multipliers
  // per stage/file, the degenerate control.
  std::vector<double> work_mult(n_stages, 1.0);
  std::vector<double> size_mult(n_stages > 1 ? n_stages - 1 : 0, 1.0);
  std::int64_t drawn_for = -1;

  // One BatchSampler per multiplier slot (a single shared slot for
  // kPerDataSet; one per stage and per link for kPerStage), each on its own
  // pure substream of the entry state, consumed in data-set order.
  const Prng root = prng;
  (void)prng();
  const std::size_t n_slots = scope == AssociationScope::kPerDataSet
                                  ? 1
                                  : work_mult.size() + size_mult.size();
  const std::size_t block =
      pick_block_draws(n_slots, static_cast<std::size_t>(options.data_sets));
  std::vector<BatchSampler> slot_samplers;
  slot_samplers.reserve(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k) {
    slot_samplers.emplace_back(unit_law, root.split(k), options.refill_isa,
                               block);
  }

  auto refresh = [&](std::int64_t n) {
    if (drawn_for == n) return;
    drawn_for = n;
    if (scope == AssociationScope::kPerDataSet) {
      const double shared = slot_samplers[0].next();
      for (double& w : work_mult) w = shared;
      for (double& s : size_mult) s = shared;
      return;
    }
    std::size_t slot = 0;
    for (double& w : work_mult) w = slot_samplers[slot++].next();
    for (double& s : size_mult) s = slot_samplers[slot++].next();
  };

  Sampler sampler;
  sampler.comp = [&, unit_law](std::size_t i, std::int64_t n) {
    refresh(n);
    const auto& team = mapping.team(i);
    const std::size_t p = team[static_cast<std::size_t>(
        n % static_cast<std::int64_t>(team.size()))];
    return work_mult[i] * mapping.comp_time(p);
  };
  sampler.comm = [&, unit_law](std::size_t i, std::int64_t n) {
    refresh(n);
    const auto& senders = mapping.team(i);
    const auto& receivers = mapping.team(i + 1);
    const std::size_t p = senders[static_cast<std::size_t>(
        n % static_cast<std::int64_t>(senders.size()))];
    const std::size_t q = receivers[static_cast<std::size_t>(
        n % static_cast<std::int64_t>(receivers.size()))];
    return size_mult[i] * mapping.comm_time(p, q);
  };
  return run(mapping, model, sampler, options);
}

PipelineSimResult simulate_pipeline_associated(
    const Mapping& mapping, ExecutionModel model, const Distribution& size_law,
    const PipelineSimOptions& options, AssociationScope scope) {
  Prng prng(options.seed);
  return simulate_pipeline_associated(mapping, model, size_law, prng, options,
                                      scope);
}

}  // namespace streamflow
