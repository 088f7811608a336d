// Small bit-manipulation helpers shared across the library.

#ifndef SHBF_CORE_BITS_H_
#define SHBF_CORE_BITS_H_

#include <cstddef>
#include <cstdint>

namespace shbf {

/// Number of bits in the machine word the paper reasons about (w in §3.1).
inline constexpr uint32_t kWordBits = 64;

/// The paper's recommended maximum offset span for 64-bit machines: w̄ = w − 7
/// guarantees that bits [pos, pos + w̄) are covered by one unaligned 8-byte
/// load regardless of pos % 8 (§3.1, "we choose w̄ ≤ w − 7").
inline constexpr uint32_t kDefaultMaxOffsetSpan = kWordBits - 7;  // 57

/// Rounds `n` up to the next multiple of `mult` (mult > 0).
constexpr size_t RoundUp(size_t n, size_t mult) {
  return (n + mult - 1) / mult * mult;
}

/// Ceiling division for non-negative integers.
constexpr size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// True iff `v` is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v >= 1).
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Lemire's multiply-shift range reduction: maps a uniform 64-bit `x` to
/// [0, n) with one multiply instead of a division. Consumes the HIGH bits
/// of `x`, so callers that also need independent low-entropy fields can
/// take them from the low bits of the same word.
constexpr uint64_t FastRange64(uint64_t x, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(x) * n) >> 64);
}

/// True iff every bit of `mask` is set in `block`, over `num_words` words
/// starting at byte `block` (little-endian word slicing, as BitArray lays
/// bits out): the split-block filters' whole-block resolve.
inline bool BlockSubsetTest(const uint8_t* block, const uint64_t* mask,
                            size_t num_words) {
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word;
    __builtin_memcpy(&word, block + w * 8, sizeof(word));
    if ((word & mask[w]) != mask[w]) return false;
  }
  return true;
}

}  // namespace shbf

#endif  // SHBF_CORE_BITS_H_
