// Portable fallback kernels and the runtime ISA dispatch logic.
#include "common/simd_fill.hpp"

#include "common/error.hpp"
#include "common/prng.hpp"

namespace streamflow::simd {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step on lane j of the block — the scalar recurrence of
/// Prng::step(), verbatim.
inline std::uint64_t step_lane(LaneBlock& lanes, std::size_t j) {
  const std::uint64_t result =
      rotl(lanes.s[0][j] + lanes.s[3][j], 23) + lanes.s[0][j];
  const std::uint64_t t = lanes.s[1][j] << 17;
  lanes.s[2][j] ^= lanes.s[0][j];
  lanes.s[3][j] ^= lanes.s[1][j];
  lanes.s[1][j] ^= lanes.s[2][j];
  lanes.s[0][j] ^= lanes.s[3][j];
  lanes.s[2][j] ^= t;
  lanes.s[3][j] = rotl(lanes.s[3][j], 45);
  return result;
}

void fill_scalar(LaneBlock& lanes, std::uint64_t* out, std::size_t per_lane) {
  for (std::size_t j = 0; j < kLanes; ++j) {
    std::uint64_t* run = out + j * per_lane;
    for (std::size_t i = 0; i < per_lane; ++i) run[i] = step_lane(lanes, j);
  }
}

void fill_u01_scalar(LaneBlock& lanes, double* out, std::size_t per_lane) {
  for (std::size_t j = 0; j < kLanes; ++j) {
    double* run = out + j * per_lane;
    for (std::size_t i = 0; i < per_lane; ++i)
      run[i] = u64_to_unit_double(step_lane(lanes, j));
  }
}

void convert_u01_scalar(const std::uint64_t* in, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = u64_to_unit_double(in[i]);
}

constexpr Kernels kScalarKernels{&fill_scalar, &fill_u01_scalar,
                                 &convert_u01_scalar};

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAuto:
      return "auto";
  }
  return "?";
}

Isa best_isa() {
  static const Isa best = avx2_kernels() != nullptr && cpu_has_avx2()
                              ? Isa::kAvx2
                              : Isa::kScalar;
  return best;
}

std::vector<Isa> available_isas() {
  if (best_isa() == Isa::kAvx2) return {Isa::kScalar, Isa::kAvx2};
  return {Isa::kScalar};
}

const Kernels& kernels(Isa isa) {
  if (isa == Isa::kAuto) isa = best_isa();
  if (isa == Isa::kScalar) return kScalarKernels;
  SF_REQUIRE(best_isa() == Isa::kAvx2, "requested SIMD ISA is not available");
  return *avx2_kernels();
}

}  // namespace streamflow::simd
