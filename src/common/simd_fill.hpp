// SIMD xoshiro256++ block-fill kernels (the engine room of BufferedPrng).
//
// A kernel advances kLanes independent xoshiro256++ lane states in lock-step
// and writes each lane's draws CONTIGUOUSLY into the output block: lane j
// produces out[j*per_lane .. (j+1)*per_lane). BufferedPrng seeds lane j with
// the scalar stream state advanced j*per_lane steps (via a precomputed GF(2)
// jump matrix, see buffered_prng.cpp), so the filled block is byte-identical
// to per_lane*kLanes sequential scalar draws — batching never changes the
// stream, only how fast it is materialized.
//
// Two kernel families exist: the portable scalar one and AVX2. The AVX2
// kernels live in their own translation unit, compiled with -mavx2
// (set per-source in CMakeLists.txt) so the rest of the library stays
// baseline-ISA; its table is nullptr when the compiler lacks the flag.
// Runtime dispatch picks AVX2 when it is compiled in and the CPU supports
// it (CPUID via __builtin_cpu_supports), scalar otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace streamflow::simd {

/// Number of interleaved xoshiro lanes every kernel advances. Eight lanes =
/// two AVX2 vectors in flight, enough to hide the 3-4 cycle xor/rotate
/// dependency chain of a single state.
inline constexpr std::size_t kLanes = 8;

/// Lane states in structure-of-arrays layout: word w of lane j at s[w][j].
struct LaneBlock {
  alignas(64) std::uint64_t s[4][kLanes];
};

/// One instruction set's kernel family.
struct Kernels {
  /// Fill `out` with per_lane draws from each lane (lane j's run starting at
  /// out + j*per_lane), advancing the lane states in place. per_lane must be
  /// a positive multiple of 8.
  void (*fill)(LaneBlock& lanes, std::uint64_t* out, std::size_t per_lane);
  /// Same contract, but emits uniform01() doubles instead of raw draws: each
  /// value is exactly u64_to_unit_double(raw draw) — the conversion is exact
  /// (53-bit operand, power-of-two scale), so vectorizing it cannot change a
  /// single bit relative to the scalar expression.
  void (*fill_u01)(LaneBlock& lanes, double* out, std::size_t per_lane);
  /// Elementwise out[i] = u64_to_unit_double(in[i]) for already-materialized
  /// raw draws (BufferedPrng's partial-block drains), any n, in/out
  /// disjoint. Same exactness guarantee as fill_u01.
  void (*convert_u01)(const std::uint64_t* in, double* out, std::size_t n);
};

/// Instruction sets a kernel family can be compiled for.
enum class Isa {
  kScalar,  ///< portable C++ fallback, always available
  kAvx2,    ///< AVX2, two interleaved 4-lane groups
  kAuto,    ///< dispatch: kAvx2 when compiled in and supported, else kScalar
};

const char* isa_name(Isa isa);

/// The AVX2 kernels, or nullptr when their TU was compiled without AVX2
/// (non-x86 target or compiler without the flag).
const Kernels* avx2_kernels();

/// What kAuto resolves to: kAvx2 when avx2_kernels() is non-null and the
/// CPU supports AVX2, kScalar otherwise.
Isa best_isa();

/// Every concrete ISA available on this machine, scalar first — the
/// byte-equality tests iterate this to pin each compiled path.
// lint:allow(unused-api): names the machine's kernels next to their dispatch
std::vector<Isa> available_isas();

/// Resolve an ISA (including kAuto) to its kernels. SF_REQUIREs that the
/// ISA is available.
const Kernels& kernels(Isa isa);

}  // namespace streamflow::simd
