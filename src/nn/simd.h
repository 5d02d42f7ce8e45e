// Portable SIMD lane abstraction for the float32 kernels in
// tensor.cc/layers.cc, plus the runtime controls the benches and tests
// use to compare scalar and vector paths in one binary.
//
// The bit-identity contract (docs/PERFORMANCE.md) shapes everything
// here: kernels may only vectorize across INDEPENDENT OUTPUT LANES
// (j-columns of a GEMM output, elementwise sweeps), never across the
// shared reduction dimension — each output element's p-ascending
// accumulation order must match the scalar kernel exactly. The lane ops
// are plain mul/add (no FMA: a fused multiply-add rounds once instead
// of twice and would change low bits), `Relu` reproduces
// `v < 0.0f ? 0.0f : v` including -0.0 and NaN behavior,
// `NonZeroMask`/`And` turn the kernels' skip of zero inputs into a
// branch-free mask on the product (all-ones where the input is nonzero
// or NaN, so a NaN input still poisons the sum as an unskipped term
// would), and `LoadTransposed` turns a W x W tile of row-major memory
// into W column vectors so dot-product kernels (MatMulTransB) can
// broadcast one p-term at a time into W independent accumulator lanes.
//
// ISA selection is at compile time from the target the translation unit
// is built for:
//   * AVX2 (8 lanes) when __AVX2__ — the top-level CMakeLists probes the
//     build host and adds -mavx2 when it supports it (without -mfma, so
//     the compiler cannot contract mul+add into FMA).
//   * SSE2 (4 lanes) on any x86-64 build.
//   * NEON (4 lanes) on AArch64. 32-bit ARM NEON is deliberately NOT
//     used: ARMv7 NEON flushes denormals to zero, which breaks bit
//     identity with the scalar VFP path.
//   * Scalar (1 lane) otherwise, or when CONFCARD_SIMD=off at configure
//     time (which defines CONFCARD_SIMD_OFF and compiles the vector
//     paths out entirely).
//
// At runtime, SetSimdEnabled(false) (or the CONFCARD_SIMD=off
// environment variable) switches every kernel back to its scalar
// reference implementation — both paths live in the binary, which is
// what lets tests assert scalar-vs-SIMD bit identity (simd_test).
#ifndef CONFCARD_NN_SIMD_H_
#define CONFCARD_NN_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#if !defined(CONFCARD_SIMD_OFF)
#if defined(__AVX2__)
#define CONFCARD_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define CONFCARD_SIMD_SSE2 1
#include <emmintrin.h>
#include <xmmintrin.h>
#elif defined(__aarch64__) && (defined(__ARM_NEON) || defined(__ARM_NEON__))
#define CONFCARD_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !CONFCARD_SIMD_OFF

namespace confcard {
namespace nn {

/// True when this build carries a vector ISA (AVX2/SSE2/NEON) for the
/// kernels; false for scalar-only builds (CONFCARD_SIMD=off or an
/// unsupported target).
bool SimdCompiledIn();

/// Whether the kernels currently take their vector paths. Defaults to
/// SimdCompiledIn() unless the CONFCARD_SIMD environment variable is
/// "off"/"0"/"false"/"scalar".
bool SimdEnabled();

/// Runtime toggle (relaxed-atomic; safe to flip between kernel calls,
/// not concurrently with one). Forcing `true` is a no-op in scalar-only
/// builds. Benches and the bit-identity tests sweep this.
void SetSimdEnabled(bool on);

/// The compiled kernel ISA: "avx2", "sse2", "neon", or "scalar".
/// Reports what the binary carries, independent of SimdEnabled().
const char* SimdIsaName();

/// Lanes per vector for the compiled ISA (1 when scalar).
size_t SimdLaneWidth();

namespace simd {

/// Reference lane set: width 1, plain float ops. The vector kernels
/// instantiated with this type are the scalar semantics the wide types
/// must reproduce bit for bit.
struct ScalarLanes {
  using Vec = float;
  static constexpr size_t kWidth = 1;
  static Vec Load(const float* p) { return *p; }
  static void Store(float* p, Vec v) { *p = v; }
  static Vec Broadcast(float x) { return x; }
  static Vec Zero() { return 0.0f; }
  static Vec Add(Vec a, Vec b) { return a + b; }
  static Vec Mul(Vec a, Vec b) { return a * b; }
  static Vec Relu(Vec v) { return v < 0.0f ? 0.0f : v; }
  // All-ones bits where x != 0 (NaN included: unordered), else +0.
  static Vec NonZeroMask(Vec x) {
    return std::bit_cast<float>(-static_cast<uint32_t>(x != 0.0f));
  }
  static Vec And(Vec mask, Vec v) {
    return std::bit_cast<float>(std::bit_cast<uint32_t>(mask) &
                                std::bit_cast<uint32_t>(v));
  }
  static void LoadTransposed(const float* base, size_t stride,
                             Vec out[kWidth]) {
    (void)stride;
    out[0] = base[0];
  }
};

#if defined(CONFCARD_SIMD_AVX2)

struct Avx2Lanes {
  using Vec = __m256;
  static constexpr size_t kWidth = 8;
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm256_set1_ps(x); }
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  // maxps(0, v) returns the SECOND operand when the compare is equal or
  // unordered, so -0.0f passes through and NaN stays NaN — exactly
  // `v < 0.0f ? 0.0f : v`.
  static Vec Relu(Vec v) { return _mm256_max_ps(Zero(), v); }
  static Vec NonZeroMask(Vec x) {
    return _mm256_cmp_ps(x, Zero(), _CMP_NEQ_UQ);
  }
  static Vec And(Vec mask, Vec v) { return _mm256_and_ps(mask, v); }
  // 8x8 in-register transpose of the tile whose row t is
  // base[t*stride .. t*stride+7]; out[c] holds column c across the 8
  // rows. Standard unpack/shuffle/permute2f128 sequence.
  static void LoadTransposed(const float* base, size_t stride,
                             Vec out[kWidth]) {
    const __m256 r0 = _mm256_loadu_ps(base + 0 * stride);
    const __m256 r1 = _mm256_loadu_ps(base + 1 * stride);
    const __m256 r2 = _mm256_loadu_ps(base + 2 * stride);
    const __m256 r3 = _mm256_loadu_ps(base + 3 * stride);
    const __m256 r4 = _mm256_loadu_ps(base + 4 * stride);
    const __m256 r5 = _mm256_loadu_ps(base + 5 * stride);
    const __m256 r6 = _mm256_loadu_ps(base + 6 * stride);
    const __m256 r7 = _mm256_loadu_ps(base + 7 * stride);
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    out[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    out[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    out[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    out[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    out[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    out[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    out[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    out[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
  }
};

using NativeLanes = Avx2Lanes;
inline constexpr const char* kSimdIsaName = "avx2";

#elif defined(CONFCARD_SIMD_SSE2)

struct Sse2Lanes {
  using Vec = __m128;
  static constexpr size_t kWidth = 4;
  static Vec Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm_set1_ps(x); }
  static Vec Zero() { return _mm_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm_add_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm_mul_ps(a, b); }
  // Same -0.0/NaN reasoning as the AVX2 variant.
  static Vec Relu(Vec v) { return _mm_max_ps(Zero(), v); }
  // cmpneqps is the unordered not-equal: NaN lanes are set.
  static Vec NonZeroMask(Vec x) { return _mm_cmpneq_ps(x, Zero()); }
  static Vec And(Vec mask, Vec v) { return _mm_and_ps(mask, v); }
  static void LoadTransposed(const float* base, size_t stride,
                             Vec out[kWidth]) {
    __m128 r0 = _mm_loadu_ps(base + 0 * stride);
    __m128 r1 = _mm_loadu_ps(base + 1 * stride);
    __m128 r2 = _mm_loadu_ps(base + 2 * stride);
    __m128 r3 = _mm_loadu_ps(base + 3 * stride);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    out[0] = r0;
    out[1] = r1;
    out[2] = r2;
    out[3] = r3;
  }
};

using NativeLanes = Sse2Lanes;
inline constexpr const char* kSimdIsaName = "sse2";

#elif defined(CONFCARD_SIMD_NEON)

struct NeonLanes {
  using Vec = float32x4_t;
  static constexpr size_t kWidth = 4;
  static Vec Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Vec v) { vst1q_f32(p, v); }
  static Vec Broadcast(float x) { return vdupq_n_f32(x); }
  static Vec Zero() { return vdupq_n_f32(0.0f); }
  static Vec Add(Vec a, Vec b) { return vaddq_f32(a, b); }
  static Vec Mul(Vec a, Vec b) { return vmulq_f32(a, b); }
  // vmaxq would return +0.0 for -0.0 input; the select reproduces the
  // scalar `v < 0.0f ? 0.0f : v` exactly (NaN < 0 is false -> NaN kept).
  static Vec Relu(Vec v) { return vbslq_f32(vcltq_f32(v, Zero()), Zero(), v); }
  // NOT(x == 0): NaN compares unequal, so its lanes are set.
  static Vec NonZeroMask(Vec x) {
    return vreinterpretq_f32_u32(vmvnq_u32(vceqq_f32(x, Zero())));
  }
  static Vec And(Vec mask, Vec v) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(mask), vreinterpretq_u32_f32(v)));
  }
  static void LoadTransposed(const float* base, size_t stride,
                             Vec out[kWidth]) {
    const float32x4_t r0 = vld1q_f32(base + 0 * stride);
    const float32x4_t r1 = vld1q_f32(base + 1 * stride);
    const float32x4_t r2 = vld1q_f32(base + 2 * stride);
    const float32x4_t r3 = vld1q_f32(base + 3 * stride);
    const float32x4x2_t t01 = vtrnq_f32(r0, r1);
    const float32x4x2_t t23 = vtrnq_f32(r2, r3);
    out[0] = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
    out[1] = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
    out[2] =
        vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
    out[3] =
        vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
  }
};

using NativeLanes = NeonLanes;
inline constexpr const char* kSimdIsaName = "neon";

#else

using NativeLanes = ScalarLanes;
inline constexpr const char* kSimdIsaName = "scalar";

#endif

/// Compile-time gate the kernels use so scalar-only builds emit no dead
/// vector instantiations.
inline constexpr bool kHaveNativeLanes = (NativeLanes::kWidth > 1);

}  // namespace simd
}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_SIMD_H_
