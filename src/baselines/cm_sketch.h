// Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms 2005) — the other
// multiplicity comparator (§2.3, §5.5, Fig 11) and the base for the shifting
// SCM sketch.
//
// d rows ("vectors") of r counters each, one hash function per row. Insert
// increments one counter per row; query reports the minimum — an estimate
// that never underestimates. The optional conservative-update mode (an
// ablation; not in the paper's evaluation) increments only the counters that
// must grow, trading update cost for accuracy.

#ifndef SHBF_BASELINES_CM_SKETCH_H_
#define SHBF_BASELINES_CM_SKETCH_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/packed_counter_array.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class CmSketch {
 public:
  struct Params {
    uint32_t depth = 0;         ///< d rows
    size_t width = 0;           ///< r counters per row
    uint32_t counter_bits = 6;  ///< matches the paper's evaluation setting
    bool conservative_update = false;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  explicit CmSketch(const Params& params);

  /// Adds one occurrence of `key`.
  void Insert(std::string_view key);

  /// Point estimate: min over the d counters. Never underestimates.
  uint64_t QueryCount(std::string_view key) const;
  uint64_t QueryCountWithStats(std::string_view key, QueryStats* stats) const;

  uint32_t depth() const { return depth_; }
  size_t width() const { return width_; }
  size_t memory_bits() const {
    return counters_.num_counters() * counters_.bits_per_counter();
  }
  void Clear() { counters_.Clear(); }

  /// Serializes parameters + counter payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a sketch that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<CmSketch>* out);

 private:
  size_t CellIndex(uint32_t row, const HashFamily::BoundKey& h) const {
    return static_cast<size_t>(row) * width_ + h(row) % width_;
  }

  HashFamily family_;
  uint32_t depth_;
  size_t width_;
  bool conservative_;
  PackedCounterArray counters_;  // row-major d × r
};

}  // namespace shbf

#endif  // SHBF_BASELINES_CM_SKETCH_H_
