// Vector probe kernels with runtime dispatch (scalar / NEON / AVX2 /
// AVX-512).
//
// Two primitives cover the split-block filters' hot loops in the batched
// query engine:
//
//   BlockSubsetTest   (block & mask) == mask over a whole cache-line block
//                     — the split-block resolve, 256 bits per AVX2 op
//                     (one 512-bit op on AVX-512F parts).
//   MaskFromShifts    lane i: pattern << shifts[i] — fused mask
//                     construction for the split-block layouts, where every
//                     probe owns its own sub-word: one AVX2 `vpsllvq`
//                     (NEON `vshlq`) turns 4 (2) probe positions into 4 (2)
//                     finished mask words with no scatter conflicts.
//
// A kernel stays only while a paired run shows its vector body beating
// the scalar one by at least 10% somewhere the engine uses it
// (docs/design.md "SIMD kernels and dispatch").
//
// The AVX2/AVX-512 bodies are compiled per-function (`target("avx2")`,
// `target("avx512f")`), so no global -mavx2 flag is needed and the binary
// stays runnable on pre-AVX2 parts; simd::ActiveLevel()
// (core/cpu_features.h) picks the widest path at runtime and
// SHBF_FORCE_SCALAR / ForceScalar(true) demote every kernel to the scalar
// reference, which the vector bodies must match bit for bit
// (tests/simd_kernel_test.cc sweeps random inputs under both settings).

#ifndef SHBF_CORE_SIMD_H_
#define SHBF_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "core/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHBF_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define SHBF_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace shbf {
namespace simd {

// ------------------------------------------------------------------------
// Scalar reference implementations (the semantic ground truth)
// ------------------------------------------------------------------------

inline bool BlockSubsetTestScalar(const uint8_t* block, const uint64_t* mask,
                                  size_t num_words) {
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word;
    __builtin_memcpy(&word, block + w * 8, sizeof(word));
    if ((word & mask[w]) != mask[w]) return false;
  }
  return true;
}

inline void MaskFromShiftsScalar(const uint64_t* shifts, uint64_t pattern,
                                 size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = pattern << shifts[i];
  }
}

// ------------------------------------------------------------------------
// AVX2 bodies (per-function target attribute; callable after a runtime
// AVX2 check only)
// ------------------------------------------------------------------------

#if SHBF_SIMD_X86

__attribute__((target("avx2"))) inline bool BlockSubsetTestAvx2(
    const uint8_t* block, const uint64_t* mask, size_t num_words) {
  size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block + w * 8));
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + w));
    // testc: 1 iff (~b & m) == 0, i.e. every mask bit is set in the block.
    if (!_mm256_testc_si256(b, m)) return false;
  }
  return BlockSubsetTestScalar(block + w * 8, mask + w, num_words - w);
}

__attribute__((target("avx2"))) inline void MaskFromShiftsAvx2(
    const uint64_t* shifts, uint64_t pattern, size_t n, uint64_t* out) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(pattern));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(shifts + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sllv_epi64(p, s));
  }
  MaskFromShiftsScalar(shifts + i, pattern, n - i, out + i);
}

// ---- AVX-512F bodies (one 512-bit op per cache-line block; dispatched
// only when __builtin_cpu_supports("avx512f") said yes) ----

__attribute__((target("avx512f"))) inline bool BlockSubsetTestAvx512(
    const uint8_t* block, const uint64_t* mask, size_t num_words) {
  size_t w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i b = _mm512_loadu_si512(block + w * 8);
    const __m512i m = _mm512_loadu_si512(mask + w);
    // Any lane where (b & m) != m has a missing probe bit.
    if (_mm512_cmpneq_epi64_mask(_mm512_and_si512(b, m), m) != 0) {
      return false;
    }
  }
  return BlockSubsetTestScalar(block + w * 8, mask + w, num_words - w);
}

__attribute__((target("avx512f"))) inline void MaskFromShiftsAvx512(
    const uint64_t* shifts, uint64_t pattern, size_t n, uint64_t* out) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(pattern));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i s = _mm512_loadu_si512(shifts + i);
    _mm512_storeu_si512(out + i, _mm512_sllv_epi64(p, s));
  }
  MaskFromShiftsScalar(shifts + i, pattern, n - i, out + i);
}

#endif  // SHBF_SIMD_X86

// ------------------------------------------------------------------------
// NEON bodies (baseline on AArch64, no target attribute needed)
// ------------------------------------------------------------------------

#if SHBF_SIMD_NEON

inline void MaskFromShiftsNeon(const uint64_t* shifts, uint64_t pattern,
                               size_t n, uint64_t* out) {
  const uint64x2_t p = vdupq_n_u64(pattern);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // vshlq_u64 left-shifts by the signed per-lane count; shifts are < 64
    // (the kernel's contract), so no lane wraps to a right shift.
    const int64x2_t s = vreinterpretq_s64_u64(vld1q_u64(shifts + i));
    vst1q_u64(out + i, vshlq_u64(p, s));
  }
  MaskFromShiftsScalar(shifts + i, pattern, n - i, out + i);
}

inline bool BlockSubsetTestNeon(const uint8_t* block, const uint64_t* mask,
                                size_t num_words) {
  size_t w = 0;
  for (; w + 2 <= num_words; w += 2) {
    const uint64x2_t b = vreinterpretq_u64_u8(vld1q_u8(block + w * 8));
    const uint64x2_t m = vld1q_u64(mask + w);
    // (~b & m) must be zero in both lanes for the subset test to pass.
    const uint64x2_t missing = vbicq_u64(m, b);
    if ((vgetq_lane_u64(missing, 0) | vgetq_lane_u64(missing, 1)) != 0) {
      return false;
    }
  }
  return BlockSubsetTestScalar(block + w * 8, mask + w, num_words - w);
}

#endif  // SHBF_SIMD_NEON

// ------------------------------------------------------------------------
// Dispatched entry points
// ------------------------------------------------------------------------

/// True iff every bit of `mask` is set in `block`, over `num_words` words
/// starting at byte `block` (little-endian word slicing, as BitArray lays
/// bits out).
inline bool BlockSubsetTest(const uint8_t* block, const uint64_t* mask,
                            size_t num_words) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:
      // A 512-bit block is one op; narrower blocks test faster at 256 bits.
      return num_words >= 8 ? BlockSubsetTestAvx512(block, mask, num_words)
                            : BlockSubsetTestAvx2(block, mask, num_words);
    case Level::kAvx2:
      return BlockSubsetTestAvx2(block, mask, num_words);
#endif
#if SHBF_SIMD_NEON
    case Level::kNeon:
      return BlockSubsetTestNeon(block, mask, num_words);
#endif
    default:
      return BlockSubsetTestScalar(block, mask, num_words);
  }
}

/// out[i] = pattern << shifts[i], for i < n. Requires shifts[i] < 64 and
/// that every set bit of `pattern` stays in-word after the shift — the
/// split-block mask build, where probe i's position inside its own sub-word
/// becomes a finished mask word in one variable-shift op.
inline void MaskFromShifts(const uint64_t* shifts, uint64_t pattern,
                           size_t n, uint64_t* out) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:
      MaskFromShiftsAvx512(shifts, pattern, n, out);
      return;
    case Level::kAvx2:
      MaskFromShiftsAvx2(shifts, pattern, n, out);
      return;
#endif
#if SHBF_SIMD_NEON
    case Level::kNeon:
      MaskFromShiftsNeon(shifts, pattern, n, out);
      return;
#endif
    default:
      MaskFromShiftsScalar(shifts, pattern, n, out);
  }
}

}  // namespace simd
}  // namespace shbf

#endif  // SHBF_CORE_SIMD_H_
