// Fixed-width packed counters (z bits per counter, 1 <= z <= 32).
//
// Substrate for the counting structures: counting Bloom filters typically use
// 4-bit counters (§3.3 "in most applications, 4 bits for a counter are
// enough"), Spectral BF / CM sketch use 6-bit counters in the paper's
// evaluation (§6.4), and the counting ShBF twins use whatever the caller
// picks. Counters saturate on increment; a saturated ("stuck") counter is
// never decremented — the standard counting-Bloom overflow policy.

#ifndef SHBF_CORE_PACKED_COUNTER_ARRAY_H_
#define SHBF_CORE_PACKED_COUNTER_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bits.h"
#include "core/check.h"
#include "core/serde.h"

namespace shbf {

class PackedCounterArray {
 public:
  /// Creates `num_counters` zeroed counters of `bits_per_counter` bits each.
  PackedCounterArray(size_t num_counters, uint32_t bits_per_counter);

  /// Non-owning read-only view over externally managed packed words (an
  /// mmap'd filter image region). `words` must be 8-byte aligned, hold the
  /// owning layout's ⌈num_counters·z/64⌉ + 1 words (the straddle word
  /// included), and outlive the view. Mutators (Set, Increment, Decrement,
  /// Clear, ReadPayload) CHECK-fail on a view. `saturation_events` restores
  /// the metadata the owning serde carries in its payload.
  static PackedCounterArray View(const uint64_t* words, size_t num_counters,
                                 uint32_t bits_per_counter,
                                 uint64_t saturation_events);

  /// True when this array borrows its words (built by View()).
  bool is_view() const { return is_view_; }

  // words_data_ points into storage_, so the compiler-generated copy would
  // alias the source's buffer; re-anchor on every copy/move (a copied view
  // becomes an owning deep copy, as with BitArray).
  PackedCounterArray(const PackedCounterArray& other);
  PackedCounterArray& operator=(const PackedCounterArray& other);
  PackedCounterArray(PackedCounterArray&& other) noexcept;
  PackedCounterArray& operator=(PackedCounterArray&& other) noexcept;

  size_t num_counters() const { return num_counters_; }
  uint32_t bits_per_counter() const { return bits_per_counter_; }

  /// Largest representable value: 2^z − 1.
  uint64_t max_value() const { return max_value_; }

  /// Reads counter `i`.
  uint64_t Get(size_t i) const;

  /// True iff any of the `count` counters starting at `first` equals
  /// `value` (value <= max_value()): the cuckoo filter's bucket test. Reads
  /// the range in chunks of ⌊64/z⌋ counters, each one funnel-shifted load
  /// of at most two words, and compares a whole chunk at once.
  bool AnyEqual(size_t first, size_t count, uint64_t value) const {
    SHBF_DCHECK(first + count <= num_counters_);
    SHBF_DCHECK(value <= max_value_);
    // SWAR "some lane is zero" on x = chunk ^ (value in every lane): a
    // lane borrows out of x − ones only if it is zero, and borrows only
    // move up, so the lowest zero lane is the lowest lane whose high bit
    // survives (x − ones) & ~x. Lanes past the range sit above the tested
    // ones, so dropping their high bits from the test is enough.
    const uint64_t pattern = value * lane_ones_;
    const uint64_t highs = lane_ones_ << (bits_per_counter_ - 1);
    while (count > 0) {
      const uint32_t lanes =
          count < lanes_per_chunk_ ? static_cast<uint32_t>(count)
                                   : lanes_per_chunk_;
      const size_t bit = first * bits_per_counter_;
      const uint32_t shift = bit & 63;
      const uint64_t* w = words_data_ + (bit >> 6);
      // w[1] is in bounds for every counter (the straddle word), and the
      // split left shift stays defined at shift == 0.
      const uint64_t x =
          ((w[0] >> shift) | ((w[1] << 1) << (63 - shift))) ^ pattern;
      const uint64_t tested =
          highs >> ((lanes_per_chunk_ - lanes) * bits_per_counter_);
      if (((x - lane_ones_) & ~x & tested) != 0) return true;
      first += lanes;
      count -= lanes;
    }
    return false;
  }

  /// Overwrites counter `i` with `value` (value <= max_value()).
  void Set(size_t i, uint64_t value);

  /// Counters [first, first + count) as one value, counter `first` in the
  /// low bits; count·z must be at most 64. One funnel-shifted load of at
  /// most two words.
  uint64_t GetRun(size_t first, uint32_t count) const;

  /// Overwrites counters [first, first + count) with `run`, a GetRun value
  /// of the same count.
  void SetRun(size_t first, uint32_t count, uint64_t run);

  /// Adds one, saturating at max_value(). Returns false iff it saturated
  /// (either was already stuck or just became stuck).
  bool Increment(size_t i);

  /// Subtracts one. No-op on a saturated (stuck) counter; CHECK-fails on an
  /// underflow, which always indicates a caller bug (deleting an element
  /// that was never inserted).
  void Decrement(size_t i);

  /// Number of counters that ever saturated. A nonzero value means deletes
  /// may leave residue (stuck counters), as in any counting Bloom filter.
  uint64_t saturation_events() const { return saturation_events_; }

  /// Zeroes all counters and the saturation counter.
  void Clear();

  /// Number of counters with value zero.
  size_t CountZero() const;

  /// Allocated footprint in bytes (the viewed span for views).
  size_t allocated_bytes() const { return num_words_ * sizeof(uint64_t); }

  /// Serialized/mapped payload of the packed words alone (straddle word
  /// included, saturation counter excluded) — the image region size.
  size_t WordPayloadBytes() const { return num_words_ * sizeof(uint64_t); }

  /// The packed words (num_words words; the last is the straddle word).
  const uint64_t* words() const { return words_data_; }
  size_t num_words() const { return num_words_; }

  /// Appends the raw payload (saturation counter + packed words) to `writer`.
  void AppendPayload(ByteWriter* writer) const;

  /// Overwrites the payload from `reader`; the array's geometry must already
  /// match the writer's. Returns false on truncated input.
  bool ReadPayload(ByteReader* reader);

 private:
  /// View() uses this to adopt foreign words.
  PackedCounterArray() = default;

  /// Sets every geometry-derived field: width limits, word count and the
  /// AnyEqual lane constants.
  void SetGeometry(size_t num_counters, uint32_t bits_per_counter);

  uint64_t* mutable_words() {
    SHBF_CHECK(!is_view_) << "mutable access to a mapped counter view";
    return storage_.data();
  }

  size_t num_counters_ = 0;
  uint32_t bits_per_counter_ = 0;
  uint64_t max_value_ = 0;
  uint32_t lanes_per_chunk_ = 0;  ///< ⌊64/z⌋ counters per AnyEqual chunk
  uint64_t lane_ones_ = 0;        ///< a 1 in the low bit of each such lane
  uint64_t saturation_events_ = 0;
  std::vector<uint64_t> storage_;      ///< owning words; empty for views
  const uint64_t* words_data_ = nullptr;  ///< storage_.data() or the viewed span
  size_t num_words_ = 0;
  bool is_view_ = false;
};

}  // namespace shbf

#endif  // SHBF_CORE_PACKED_COUNTER_ARRAY_H_
