#include "common/buffered_prng.hpp"

#include <bit>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace streamflow {

namespace detail {

// The xoshiro256++ state transition is linear over GF(2): advancing N steps
// is multiplication by T^N, a 256x256 bit matrix. We store a matrix by its
// 256 columns (column c = matrix applied to unit vector e_c), each column a
// 256-bit state. T^N is computed once per distinct N by square-and-multiply.
struct StepMatrix {
  std::array<std::array<std::uint64_t, 4>, 256> col;
};

// Applying a StepMatrix bit-by-bit costs ~256 conditional XORs — measurably
// too slow on the refill path (it would eat most of the SIMD win at the
// default block size). So each interned T^N is re-expressed as 32 byte
// tables: table[b][v] = T^N applied to the state whose byte b equals v and
// is zero elsewhere. Linearity makes the full product a XOR of 32 table
// rows — ~20x cheaper per application, for 256 KiB per distinct N.
struct LaneJump {
  std::array<std::array<std::array<std::uint64_t, 4>, 256>, 32> table;
};

namespace {

using State = std::array<std::uint64_t, 4>;

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ state step (output discarded) — keep in sync with
/// Prng::step().
void step(State& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

State apply(const StepMatrix& m, const State& s) {
  State out{};
  for (std::size_t c = 0; c < 256; ++c) {
    if ((s[c / 64] >> (c % 64)) & 1ULL) {
      for (std::size_t w = 0; w < 4; ++w) out[w] ^= m.col[c][w];
    }
  }
  return out;
}

StepMatrix single_step_matrix() {
  StepMatrix m;
  for (std::size_t c = 0; c < 256; ++c) {
    State e{};
    e[c / 64] = 1ULL << (c % 64);
    step(e);
    m.col[c] = e;
  }
  return m;
}

StepMatrix multiply(const StepMatrix& a, const StepMatrix& b) {
  StepMatrix out;
  for (std::size_t c = 0; c < 256; ++c) out.col[c] = apply(a, b.col[c]);
  return out;
}

StepMatrix power(std::size_t n) {
  // Square-and-multiply over the bits of n.
  StepMatrix result;  // identity
  for (std::size_t c = 0; c < 256; ++c) {
    State e{};
    e[c / 64] = 1ULL << (c % 64);
    result.col[c] = e;
  }
  StepMatrix base = single_step_matrix();
  while (n != 0) {
    if (n & 1) result = multiply(base, result);
    n >>= 1;
    if (n != 0) base = multiply(base, base);
  }
  return result;
}

/// Expand a step matrix into its byte-table form. Each table is filled in
/// subset order: the row for byte value v is the row for v minus its lowest
/// set bit, XOR the matrix column of that bit.
LaneJump tables_from(const StepMatrix& m) {
  LaneJump jump;
  for (std::size_t b = 0; b < 32; ++b) {
    jump.table[b][0] = State{};
    for (std::size_t v = 1; v < 256; ++v) {
      const std::size_t low = v & (~v + 1);
      const State& prev = jump.table[b][v ^ low];
      const State& col = m.col[b * 8 + std::countr_zero(low)];
      State& row = jump.table[b][v];
      for (std::size_t w = 0; w < 4; ++w) row[w] = prev[w] ^ col[w];
    }
  }
  return jump;
}

State apply(const LaneJump& jump, const State& s) {
  State out{};
  for (std::size_t b = 0; b < 32; ++b) {
    const State& row = jump.table[b][(s[b >> 3] >> ((b & 7) * 8)) & 0xff];
    for (std::size_t w = 0; w < 4; ++w) out[w] ^= row[w];
  }
  return out;
}

/// The process-wide intern cache of byte-table jump matrices — the one piece
/// of shared mutable state in the SIMD refill layer. The map is guarded; the
/// LaneJump payloads are immutable once published (entries are never erased,
/// so handing out `const LaneJump&` past the lock is safe).
struct LaneJumpCache {
  Mutex mutex;
  std::map<std::size_t, std::unique_ptr<LaneJump>> entries
      SF_GUARDED_BY(mutex);
};

/// Intern the byte-table form of T^steps: computed once per distinct step
/// count per process, then shared read-only by every BufferedPrng
/// (thread-safe; the returned tables are immutable).
const LaneJump& lane_jump_tables(std::size_t steps) {
  // Leaked intentionally: BufferedPrng instances may outlive static
  // destruction order, and the tables are meaningful for the whole process.
  static LaneJumpCache* cache = new LaneJumpCache();
  MutexLock lock(cache->mutex);
  auto& slot = cache->entries[steps];
  if (!slot) slot = std::make_unique<LaneJump>(tables_from(power(steps)));
  return *slot;
}

}  // namespace

}  // namespace detail

std::size_t pick_block_draws(std::size_t concurrent_streams,
                             std::size_t expected_draws_per_stream) {
  constexpr std::size_t kGranule = simd::kLanes * 8;
  constexpr std::size_t kBudgetBytes = 1u << 20;
  if (concurrent_streams == 0) concurrent_streams = 1;
  std::size_t block = BufferedPrng::kDefaultBlockDraws;
  while (block > 16 * kGranule &&
         (block * concurrent_streams * sizeof(std::uint64_t) > kBudgetBytes ||
          block / 2 >= expected_draws_per_stream)) {
    block /= 2;
  }
  return block;
}

BufferedPrng::BufferedPrng(const Prng& start, simd::Isa isa,
                           std::size_t block_draws)
    : RandomSource(start),  // carry over any pending cached normal deviate
      frontier_(start.state()),
      buffer_(block_draws),
      kernels_(&simd::kernels(isa)),
      lane_jump_(nullptr),
      per_lane_(block_draws / simd::kLanes) {
  SF_REQUIRE(block_draws > 0 && block_draws % (simd::kLanes * 8) == 0,
             "block_draws must be a positive multiple of kLanes * 8");
  lane_jump_ = &detail::lane_jump_tables(per_lane_);
}

void BufferedPrng::fill_uniform01(double* out, std::size_t n) {
  std::size_t i = 0;
  // Drain already-materialized raws first so the logical stream position
  // stays exactly sequential (vectorized elementwise conversion — exact,
  // see simd_fill.hpp).
  if (pos_ < end_) {
    const std::size_t m = std::min(n, end_ - pos_);
    kernels_->convert_u01(buffer_.data() + pos_, out, m);
    pos_ += m;
    i += m;
  }
  // Whole blocks convert in-kernel straight into the caller's buffer.
  while (n - i >= buffer_.size()) {
    simd::LaneBlock lanes;
    seed_lanes(lanes);
    kernels_->fill_u01(lanes, out + i, per_lane_);
    i += buffer_.size();
  }
  // Remainder comes out of a fresh raw block.
  while (i < n) {
    refill();
    const std::size_t m = std::min(n - i, end_ - pos_);
    kernels_->convert_u01(buffer_.data() + pos_, out + i, m);
    pos_ += m;
    i += m;
  }
}

void BufferedPrng::seed_lanes(simd::LaneBlock& lanes) {
  std::array<std::uint64_t, 4> s = frontier_;
  for (std::size_t j = 0; j < simd::kLanes; ++j) {
    for (std::size_t w = 0; w < 4; ++w) lanes.s[w][j] = s[w];
    s = detail::apply(*lane_jump_, s);
  }
  frontier_ = s;
}

void BufferedPrng::refill() {
  simd::LaneBlock lanes;
  seed_lanes(lanes);
  kernels_->fill(lanes, buffer_.data(), per_lane_);
  pos_ = 0;
  end_ = buffer_.size();
}

}  // namespace streamflow
