// SCM — the Shifting Count-Min sketch (paper §5.5).
//
// A CM sketch of depth d and width r becomes d/2 rows of 2r counters; each
// element touches two counters per row: v_i[h_i(e)] and v_i[h_i(e) + o(e)],
// with o(e) = h_{d/2+1}(e) % (w̄_c − 1) + 1. Because §5.5 requires
// w̄_c <= (w − 7) / z for z-bit counters, both counters of a pair sit inside
// one unaligned word load: the shifting framework halves both the hash
// computations (d/2 + 1 vs d) and the memory accesses (d/2 vs d) of a point
// query at equal total memory.

#ifndef SHBF_SHBF_SCM_SKETCH_H_
#define SHBF_SHBF_SCM_SKETCH_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/bits.h"
#include "core/packed_counter_array.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class ScmSketch {
 public:
  struct Params {
    uint32_t depth = 0;         ///< d of the equivalent CM sketch; even, >= 2
    size_t width = 0;           ///< r of the equivalent CM sketch (per row)
    uint32_t counter_bits = 8;  ///< z; w̄_c = (w − 7) / z must be >= 2
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;

    /// w̄_c for these parameters: (w − 7) / counter_bits.
    uint32_t OffsetSpan() const {
      return (kWordBits - 7) / counter_bits;
    }
  };

  explicit ScmSketch(const Params& params);

  /// Adds one occurrence of `key`: two counter increments per row, d total.
  void Insert(std::string_view key);

  /// Point estimate: min over the d counters of `key`. Never underestimates.
  uint64_t QueryCount(std::string_view key) const;
  uint64_t QueryCountWithStats(std::string_view key, QueryStats* stats) const;

  uint32_t rows() const { return rows_; }
  size_t row_width() const { return row_width_; }
  uint32_t offset_span() const { return offset_span_; }
  size_t memory_bits() const {
    return counters_.num_counters() * counters_.bits_per_counter();
  }
  void Clear() { counters_.Clear(); }

  /// Serializes parameters + counter payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a sketch that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<ScmSketch>* out);

 private:
  uint64_t Offset(const HashFamily::BoundKey& h) const;

  HashFamily family_;  // d/2 row functions + 1 offset function
  uint32_t rows_;        // d / 2
  size_t row_width_;     // 2r logical columns (plus offset slack per row)
  size_t row_stride_;    // row_width_ + offset slack
  uint32_t offset_span_; // w̄_c
  PackedCounterArray counters_;
};

}  // namespace shbf

#endif  // SHBF_SHBF_SCM_SKETCH_H_
