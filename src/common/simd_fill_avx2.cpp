// AVX2 xoshiro256++ block-fill kernel: 4 lanes per 256-bit vector, two
// vector groups over the 8 lanes. This TU is compiled with -mavx2 when the
// compiler supports it (see CMakeLists.txt); otherwise avx2_kernels()
// returns nullptr and dispatch falls back to scalar.
#include "common/simd_fill.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace streamflow::simd {

namespace {

inline __m256i rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

struct QuadState {
  __m256i s0, s1, s2, s3;
};

/// One xoshiro256++ step on 4 lanes — the scalar recurrence, element-wise.
inline __m256i next4(QuadState& q) {
  const __m256i result =
      _mm256_add_epi64(rotl64(_mm256_add_epi64(q.s0, q.s3), 23), q.s0);
  const __m256i t = _mm256_slli_epi64(q.s1, 17);
  q.s2 = _mm256_xor_si256(q.s2, q.s0);
  q.s3 = _mm256_xor_si256(q.s3, q.s1);
  q.s1 = _mm256_xor_si256(q.s1, q.s2);
  q.s0 = _mm256_xor_si256(q.s0, q.s3);
  q.s2 = _mm256_xor_si256(q.s2, t);
  q.s3 = rotl64(q.s3, 45);
  return result;
}

/// 4x4 transpose of 64-bit elements: rows r[u] = draws of iteration u across
/// lanes 0..3 become columns c[j] = 4 consecutive draws of lane j.
inline void transpose4x4(const __m256i r[4], __m256i c[4]) {
  const __m256i t0 = _mm256_unpacklo_epi64(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi64(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi64(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi64(r[2], r[3]);
  c[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
  c[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
  c[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
  c[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
}

/// Exact uint64 -> double for values < 2^53 (all our operands are raw draws
/// shifted right by 11). Classic split conversion: build hi*2^32 and
/// 2^52 + lo as exact doubles and recombine — every step is exact below
/// 2^53, so the result is bit-identical to static_cast<double>(v).
inline __m256d u64lt53_to_double(__m256i v) {
  const __m256d k84 = _mm256_set1_pd(19342813113834066795298816.);  // 2^84
  const __m256d k84_52 =
      _mm256_set1_pd(19342813118337666422669312.);  // 2^84 + 2^52
  const __m256i k52_bits = _mm256_castpd_si256(
      _mm256_set1_pd(4503599627370496.));  // bit pattern of 2^52
  __m256i hi = _mm256_srli_epi64(v, 32);
  hi = _mm256_or_si256(hi, _mm256_castpd_si256(k84));
  const __m256i lo = _mm256_blend_epi16(v, k52_bits, 0xcc);
  const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(hi), k84_52);
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

// NOLINTBEGIN(cppcoreguidelines-pro-type-reinterpret-cast)
// The intrinsic load/store API takes __m256i*. Each cast below points at
// uint64_t quads inside LaneBlock's alignas(64) rows with g in {0, 4}, so
// every 32-byte access is aligned and in-bounds.
inline QuadState load_group(const LaneBlock& lanes, std::size_t g) {
  return QuadState{
      _mm256_load_si256(reinterpret_cast<const __m256i*>(&lanes.s[0][g])),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(&lanes.s[1][g])),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(&lanes.s[2][g])),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(&lanes.s[3][g]))};
}

inline void store_group(LaneBlock& lanes, std::size_t g, const QuadState& q) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(&lanes.s[0][g]), q.s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&lanes.s[1][g]), q.s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&lanes.s[2][g]), q.s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&lanes.s[3][g]), q.s3);
}
// NOLINTEND(cppcoreguidelines-pro-type-reinterpret-cast)

// Both fill loops advance the two 4-lane groups in lockstep: each group's
// recurrence is a serial dependency chain (~4-cycle critical path per step),
// so running them interleaved in one loop keeps the vector units fed where
// two sequential passes would stall on the chain.
static_assert(kLanes == 8, "fill kernels interleave exactly two quad groups");

void fill_avx2(LaneBlock& lanes, std::uint64_t* out, std::size_t per_lane) {
  QuadState qa = load_group(lanes, 0);
  QuadState qb = load_group(lanes, 4);
  std::uint64_t* const base_b = out + 4 * per_lane;
  for (std::size_t i = 0; i < per_lane; i += 4) {
    __m256i ra[4], rb[4], ca[4], cb[4];
    for (int u = 0; u < 4; ++u) {
      ra[u] = next4(qa);
      rb[u] = next4(qb);
    }
    transpose4x4(ra, ca);
    transpose4x4(rb, cb);
    for (std::size_t j = 0; j < 4; ++j) {
      // Casts: unaligned-store intrinsics take __m256i*; the caller-owned
      // uint64_t buffer has no alignment contract, hence storeu.
      // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j * per_lane + i),
                          ca[j]);
      // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(base_b + j * per_lane + i), cb[j]);
    }
  }
  store_group(lanes, 0, qa);
  store_group(lanes, 4, qb);
}

void convert_u01_avx2(const std::uint64_t* in, double* out, std::size_t n) {
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Cast: unaligned-load intrinsic over the caller's uint64_t buffer.
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + i));
    const __m256d d = u64lt53_to_double(_mm256_srli_epi64(v, 11));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(d, scale));
  }
  for (; i < n; ++i) out[i] = static_cast<double>(in[i] >> 11) * 0x1.0p-53;
}

void fill_u01_avx2(LaneBlock& lanes, double* out, std::size_t per_lane) {
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  QuadState qa = load_group(lanes, 0);
  QuadState qb = load_group(lanes, 4);
  double* const base_b = out + 4 * per_lane;
  for (std::size_t i = 0; i < per_lane; i += 4) {
    __m256i ra[4], rb[4], ca[4], cb[4];
    for (int u = 0; u < 4; ++u) {
      ra[u] = next4(qa);
      rb[u] = next4(qb);
    }
    transpose4x4(ra, ca);
    transpose4x4(rb, cb);
    for (std::size_t j = 0; j < 4; ++j) {
      const __m256d da = u64lt53_to_double(_mm256_srli_epi64(ca[j], 11));
      _mm256_storeu_pd(out + j * per_lane + i, _mm256_mul_pd(da, scale));
      const __m256d db = u64lt53_to_double(_mm256_srli_epi64(cb[j], 11));
      _mm256_storeu_pd(base_b + j * per_lane + i, _mm256_mul_pd(db, scale));
    }
  }
  store_group(lanes, 0, qa);
  store_group(lanes, 4, qb);
}

}  // namespace

const Kernels* avx2_kernels() {
  static constexpr Kernels kAvx2Kernels{&fill_avx2, &fill_u01_avx2,
                                        &convert_u01_avx2};
  return &kAvx2Kernels;
}

}  // namespace streamflow::simd

#else  // !defined(__AVX2__)

namespace streamflow::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace streamflow::simd

#endif
