// CShBF_M — counting twin of ShBF_M (paper §3.3).
//
// Mirrors the paper's two-tier architecture: a bit array B ("SRAM") answers
// queries at ShBF_M speed, while a counter array C ("DRAM") absorbs inserts
// and deletes. The two are kept in sync on every 0↔1 counter transition, so
// B is always exactly the bitwise projection of C.

#ifndef SHBF_SHBF_COUNTING_SHBF_MEMBERSHIP_H_
#define SHBF_SHBF_COUNTING_SHBF_MEMBERSHIP_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/packed_counter_array.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class CountingShbfM {
 public:
  struct Params {
    size_t num_bits = 0;       ///< m (counters and bits share this geometry)
    uint32_t num_hashes = 0;   ///< k; even, >= 2
    uint32_t counter_bits = 4; ///< §3.3: 4 bits per counter suffice
    uint32_t max_offset_span = kDefaultMaxOffsetSpan;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  /// §3.3's update-side window constraint: with z-bit counters, choosing
  /// w̄ <= (w − 7)/z makes both pair COUNTERS land in one unaligned word
  /// load, so an update also costs k/2 memory accesses. The default span
  /// (57) optimizes the query side instead; pass this value as
  /// max_offset_span to optimize the update side. Returns floor(57/z),
  /// at least 2 (z <= 28).
  static uint32_t OneAccessUpdateOffsetSpan(uint32_t counter_bits) {
    uint32_t span = (kWordBits - 7) / counter_bits;
    return span < 2 ? 2 : span;
  }

  explicit CountingShbfM(const Params& params);

  /// Increments the k pair counters; sets the mirrored bits on 0→1.
  void Insert(std::string_view key);

  /// Decrements the k pair counters; clears the mirrored bits on 1→0.
  /// Deleting a never-inserted key is a caller bug (CHECK on underflow).
  void Delete(std::string_view key);

  /// Queries the bit array B — identical cost profile to ShbfM::Contains.
  bool Contains(std::string_view key) const;
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
  const BitArray& bits() const { return bits_; }
  const PackedCounterArray& counters() const { return counters_; }

  /// True iff B equals the bitwise projection of C (test hook).
  bool SynchronizedWithCounters() const;

  /// Clears to the empty filter (bits and counters).
  void Clear() {
    bits_.Clear();
    counters_.Clear();
  }

  /// Serializes parameters + bit and counter payloads to a byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<CountingShbfM>* out);

 private:
  uint64_t Offset(const HashFamily::BoundKey& h) const;

  HashFamily family_;
  uint32_t num_hashes_;
  uint32_t max_offset_span_;
  BitArray bits_;
  PackedCounterArray counters_;
};

}  // namespace shbf

#endif  // SHBF_SHBF_COUNTING_SHBF_MEMBERSHIP_H_
