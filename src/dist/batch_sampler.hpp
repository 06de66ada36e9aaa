// BatchSampler: one law + one BufferedPrng substream + a small variate
// cache, the unit the simulators hold per resource (per transition, per
// team member, per multiplier slot). next() serves from the cache and
// refills it through Distribution::sample_batch, so inversion families get
// the vectorized transform path while rejection families transparently fall
// back to the scalar loop over the same buffered raw stream — either way the
// variate sequence per substream is exactly sample(), sample(), ...
#pragma once

#include <cstddef>
#include <vector>

#include "common/buffered_prng.hpp"
#include "dist/distribution.hpp"

namespace streamflow {

class BatchSampler {
 public:
  /// Variates cached per refill: small enough that a stream consuming a few
  /// hundred draws wastes little transform work past the end.
  static constexpr std::size_t kDefaultVariateCache = 128;

  BatchSampler(DistributionPtr law, const Prng& stream, simd::Isa isa,
               std::size_t raw_block_draws,
               std::size_t variate_cache = kDefaultVariateCache)
      : law_(std::move(law)),
        prng_(stream, isa, raw_block_draws),
        cache_(variate_cache == 0 ? 1 : variate_cache) {}

  double next() {
    if (pos_ == end_) refill();
    return cache_[pos_++];
  }

 private:
  void refill() {
    law_->sample_batch(prng_, cache_.data(), cache_.size());
    pos_ = 0;
    end_ = cache_.size();
  }

  DistributionPtr law_;
  BufferedPrng prng_;
  std::vector<double> cache_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace streamflow
