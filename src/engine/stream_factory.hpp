// Deterministic partitioning of one seed into independent PRNG substreams.
//
// Substream k is Prng(seed) advanced by k polynomial jumps (Prng::jump), so
// consecutive substreams are 2^128 draws apart: they never overlap for any
// realistic draw count, and substream k depends only on (seed, k) — never on
// thread count, call order, or process. This is what makes the parallel
// layers bit-reproducible: work unit k (a replication, a search restart)
// consumes substream k wherever it happens to run. For a second independent
// axis (e.g. scenarios of a batch search), Prng::long_jump advances 2^192
// draws, tiling families of 2^64 substreams that never collide with the
// per-unit jumps.
//
// Thread safety: a StreamFactory is NOT thread-safe (it keeps a frontier
// state) — materialize every stream serially before fanning out; each
// returned Prng is an independent value afterwards.
#pragma once

#include <cstdint>

#include "common/prng.hpp"

namespace streamflow {

class StreamFactory {
 public:
  explicit StreamFactory(std::uint64_t seed) : seed_(seed), frontier_(seed) {}

  /// Generator for substream k. Amortized O(1) jumps when called with
  /// non-decreasing k (the factory keeps the frontier state); random access
  /// backwards recomputes from the seed in O(k) jumps. Not thread-safe:
  /// materialize the streams before fanning out.
  Prng stream(std::uint64_t k) {
    if (k < built_) {
      Prng p(seed_);
      for (std::uint64_t i = 0; i < k; ++i) p.jump();
      return p;
    }
    while (built_ < k) {
      frontier_.jump();
      ++built_;
    }
    return frontier_;
  }

 private:
  std::uint64_t seed_;
  Prng frontier_;            // Prng(seed_) advanced by built_ jumps
  std::uint64_t built_ = 0;  // substream index frontier_ currently holds
};

}  // namespace streamflow
