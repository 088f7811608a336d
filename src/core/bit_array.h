// Bit array with unaligned 64-bit windowed loads.
//
// This is the storage substrate for every filter in the library and the
// mechanism behind the paper's central trick: because modern CPUs can load
// 8 bytes starting at *any byte*, the bits at positions `pos` and
// `pos + o` with `o <= 56` always fit in one such load (§3.1 of the paper:
// with word size w, choosing the offset span w̄ <= w − 7 guarantees this).
//
// The array over-allocates `slack_bits` beyond the logical size plus eight
// guard bytes, so windows starting anywhere inside the logical array never
// read out of bounds and shifted writes never wrap (the paper appends w̄ − 2
// bits for the same reason, §4.1).
//
// Storage is 64-byte aligned: the split-block variants (split_block_bloom,
// split_block_shbf_m) confine each key's probes to one block-sized span,
// and alignment makes a 512-bit block exactly one cache line instead of a
// straddle of two.

#ifndef SHBF_CORE_BIT_ARRAY_H_
#define SHBF_CORE_BIT_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/bits.h"
#include "core/check.h"
#include "core/serde.h"

namespace shbf {

class BitArray {
 public:
  /// Number of bits guaranteed valid in the value returned by LoadWindow():
  /// a load may start at any bit, so up to 7 of the 64 loaded bits are spent
  /// on byte alignment.
  static constexpr uint32_t kWindowBits = kWordBits - 7;  // 57

  /// Creates an all-zero array of `num_bits` logical bits plus `slack_bits`
  /// writable overflow bits (for shifted positions beyond the logical end).
  explicit BitArray(size_t num_bits,
                    size_t slack_bits = kDefaultMaxOffsetSpan);

  /// Non-owning read-only view over externally managed bits (an mmap'd
  /// filter image region). `data` must be 64-byte aligned, hold the same
  /// PayloadBytes() the owning layout would, stay readable for
  /// PayloadBytes() + 8 guard bytes (LoadWindow reads past the last bit),
  /// and outlive the view. Mutators (SetBit, Clear, OrWith, ReadPayload,
  /// mutable_data) CHECK-fail on a view; copying a view materializes an
  /// owning deep copy.
  static BitArray View(const uint8_t* data, size_t num_bits,
                       size_t slack_bits);

  /// True when this array borrows its bits (built by View()).
  bool is_view() const { return is_view_; }

  // data_ points into storage_, so the compiler-generated copy would alias
  // the source's buffer; re-anchor the cursor on every copy/move.
  BitArray(const BitArray& other);
  BitArray& operator=(const BitArray& other);
  BitArray(BitArray&& other) noexcept;
  BitArray& operator=(BitArray&& other) noexcept;

  /// Logical size m (hash values are reduced modulo this).
  size_t num_bits() const { return num_bits_; }

  /// Total writable bits: num_bits() + slack.
  size_t total_bits() const { return total_bits_; }

  /// Allocated footprint in bytes (includes guard bytes).
  size_t allocated_bytes() const { return size_bytes_; }

  /// Sets the bit at `pos` (pos < total_bits()).
  void SetBit(size_t pos) {
    SHBF_DCHECK(pos < total_bits_);
    SHBF_DCHECK(!is_view_);
    data_[pos >> 3] |= static_cast<uint8_t>(1u << (pos & 7));
  }

  /// Sets bit pos + i for every set bit i of `mask` (mask < 2^kWindowBits,
  /// pos + i < total_bits()) with one unaligned 8-byte read-modify-write:
  /// the write side of LoadWindow. The other bits of those bytes keep their
  /// values.
  void OrWindow(size_t pos, uint64_t mask) {
    SHBF_DCHECK(pos < total_bits_ && (mask >> kWindowBits) == 0);
    SHBF_DCHECK(!is_view_);
    uint64_t word;
    std::memcpy(&word, data_ + (pos >> 3), sizeof(word));
    word |= mask << (pos & 7);
    std::memcpy(data_ + (pos >> 3), &word, sizeof(word));
  }

  /// Clears the bit at `pos`.
  void ClearBit(size_t pos) {
    SHBF_DCHECK(pos < total_bits_);
    SHBF_DCHECK(!is_view_);
    data_[pos >> 3] &= static_cast<uint8_t>(~(1u << (pos & 7)));
  }

  /// Reads the bit at `pos`.
  bool GetBit(size_t pos) const {
    SHBF_DCHECK(pos < total_bits_);
    return (data_[pos >> 3] >> (pos & 7)) & 1u;
  }

  /// One unaligned 8-byte load; returns a word whose bit i equals
  /// GetBit(pos + i) for 0 <= i < kWindowBits. This is the paper's
  /// "one memory access fetches base and shifted bit(s)" primitive.
  uint64_t LoadWindow(size_t pos) const {
    SHBF_DCHECK(pos < total_bits_);
    uint64_t word;
    std::memcpy(&word, data_ + (pos >> 3), sizeof(word));
    return word >> (pos & 7);
  }

  /// Hints the cache to fetch the line holding `pos` (used by the batch
  /// query paths to overlap hashing with memory latency).
  void Prefetch(size_t pos) const {
    __builtin_prefetch(data_ + (pos >> 3), /*rw=*/0, /*locality=*/1);
  }

  /// 64-byte-aligned raw storage (guard bytes included) — the split-block
  /// variants hand whole blocks of it to BlockSubsetTest (core/bits.h).
  const uint8_t* data() const { return data_; }
  uint8_t* mutable_data() {
    SHBF_CHECK(!is_view_) << "mutable access to a mapped BitArray view";
    return data_;
  }

  /// Zeroes every bit.
  void Clear();

  /// Bitwise-ORs `other`'s bits into this array. Returns false (and changes
  /// nothing) unless the two arrays have identical geometry — set-union of
  /// two filters is only meaningful bit-for-bit.
  bool OrWith(const BitArray& other);

  /// Number of set bits in [0, total_bits()).
  size_t CountOnes() const;

  /// Fraction of set bits over the logical size; the paper's (1 − p′).
  double FillRatio() const {
    return num_bits_ == 0
               ? 0.0
               : static_cast<double>(CountOnes()) / static_cast<double>(num_bits_);
  }

  /// Appends the raw payload (⌈total_bits/8⌉ bytes, guard excluded).
  void AppendPayload(ByteWriter* writer) const;

  /// Overwrites the payload from `reader`; the array's geometry must already
  /// match the writer's. Returns false on truncated input.
  bool ReadPayload(ByteReader* reader);

  /// Payload size in bytes for the serialized form.
  size_t PayloadBytes() const { return CeilDiv(total_bits_, 8); }

 private:
  /// View() uses this to adopt foreign storage; everything else goes
  /// through the allocating constructor.
  BitArray() = default;

  size_t num_bits_ = 0;
  size_t total_bits_ = 0;
  size_t size_bytes_ = 0;        ///< payload + guard (what data_ spans)
  std::vector<uint8_t> storage_; ///< size_bytes_ + alignment headroom; empty for views
  uint8_t* data_ = nullptr;      ///< 64-byte-aligned cursor into storage_, or the viewed buffer
  bool is_view_ = false;         ///< borrowed read-only bits (mmap region)
};

}  // namespace shbf

#endif  // SHBF_CORE_BIT_ARRAY_H_
