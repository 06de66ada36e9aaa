// BufferedPrng: a RandomSource that serves the EXACT raw draw sequence of a
// scalar Prng, materialized block-wise by the SIMD kernels of simd_fill.hpp.
//
// Sequential order from parallel lanes: a block of B draws is produced by
// kLanes lanes where lane j's state is the scalar state advanced j*(B/kLanes)
// steps (computed with a precomputed GF(2) jump table — the xoshiro step is
// linear over GF(2), the same fact the published jump polynomials and
// tests/test_prng_jump.cpp rely on). Lane j then writes the contiguous run
// [j*B/kLanes, (j+1)*B/kLanes) of the block, so concatenating the lane runs
// reproduces the scalar stream byte-for-byte. Batching is therefore purely a
// throughput optimization: every consumer sees the stream it would have seen
// from the scalar engine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/prng.hpp"
#include "common/simd_fill.hpp"

namespace streamflow {

namespace detail {
struct LaneJump;  // byte-table form of a GF(2) xoshiro step power (internal)
}

/// Choose a refill block size (in raw draws) for a workload with
/// `concurrent_streams` live buffered streams each expected to consume about
/// `expected_draws_per_stream` draws: large enough to amortize refill
/// overhead, small enough that (a) the buffers of all streams stay within a
/// ~1 MiB budget and (b) a stream that only ever consumes a few hundred
/// draws does not generate thousands it will discard. Always a multiple of
/// simd::kLanes * 8, as BufferedPrng requires.
std::size_t pick_block_draws(std::size_t concurrent_streams,
                             std::size_t expected_draws_per_stream);

/// Serves the raw stream of a scalar Prng from a SIMD-refilled cache.
/// Byte-identical contract: the sequence of next_u64()/uniform01() values —
/// and therefore of every RandomSource transform built on them — equals what
/// the underlying Prng would have produced drawn one call at a time.
class BufferedPrng final : public RandomSource {
 public:
  /// 128 KiB of raws: big enough that the per-refill lane reseeding (eight
  /// GF(2) jump-table applications, ~0.7 us) stays below ~1% of the refill,
  /// small enough to sit in L2. Multi-stream workloads shrink it through
  /// pick_block_draws().
  static constexpr std::size_t kDefaultBlockDraws = 16384;

  /// Continue the stream from `start`'s current state (the parent Prng is
  /// not referenced afterwards and is left untouched). A pending cached
  /// normal deviate in `start` is carried over. `block_draws` must be a
  /// positive multiple of simd::kLanes * 8; `isa` selects the refill kernel
  /// (kAuto = best available — tests force specific ISAs to pin each path).
  explicit BufferedPrng(const Prng& start, simd::Isa isa = simd::Isa::kAuto,
                        std::size_t block_draws = kDefaultBlockDraws);

  std::uint64_t next_u64() override {
    if (pos_ == end_) refill();
    return buffer_[pos_++];
  }

  /// Convenience alias matching Prng's call operator.
  std::uint64_t operator()() { return next_u64(); }

  /// Write the next `n` uniform01() values into out[0..n) — byte-identical
  /// to n sequential uniform01() calls. Buffered raws are drained first;
  /// then whole blocks are converted in-kernel (exact conversion, see
  /// simd_fill.hpp) straight into `out` without staging.
  void fill_uniform01(double* out, std::size_t n);

 private:
  void refill();
  /// Seat the kLanes lane states at the current frontier (lane j advanced
  /// j*per_lane steps) and advance the frontier by one whole block.
  void seed_lanes(simd::LaneBlock& lanes);

  std::array<std::uint64_t, 4> frontier_;  // scalar state at the buffer end
  std::vector<std::uint64_t> buffer_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  const simd::Kernels* kernels_;
  const detail::LaneJump* lane_jump_;  // T^per_lane tables, interned per size
  std::size_t per_lane_;
};

}  // namespace streamflow
