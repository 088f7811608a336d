// Generalized ShBF_M with t shifting operations (paper §3.6–3.7).
//
// ShBF_M is the t = 1 case of a family: use k/(t+1) independent base hashes
// and t offset functions o_1(e), ..., o_t(e), and for every base position set
// the t + 1 bits {h_i, h_i + o_1, ..., h_i + o_t}. Following the paper's
// partitioned analysis, offset o_j is confined to the j-th slice of the
// window: o_j ∈ ((j−1)·(w̄−1)/t, j·(w̄−1)/t], so the t shifted bits land in
// disjoint ranges. Hash computations drop to k/(t+1) + t and memory accesses
// to k/(t+1) per query, at the cost of the FPR drift quantified by
// Eq (11)/(12) (implemented in analysis/generalized_theory.h).

#ifndef SHBF_SHBF_GENERALIZED_SHBF_H_
#define SHBF_SHBF_GENERALIZED_SHBF_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class GeneralizedShbfM {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m
    uint32_t num_hashes = 0;  ///< k total bits per element
    uint32_t num_shifts = 1;  ///< t; k must be divisible by t + 1
    /// w̄; (w̄ − 1) must be divisible by t so the partitions are equal.
    /// With the default 57: t ∈ {1, 2, 4, 7, 8, 14, 28, 56}.
    uint32_t max_offset_span = kDefaultMaxOffsetSpan;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  explicit GeneralizedShbfM(const Params& params);

  void Add(std::string_view key);

  /// Membership query; no false negatives. k/(t+1) window loads worst case.
  bool Contains(std::string_view key) const;
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// The t offsets for `key` (test hook). offsets[j] lies in partition j.
  std::vector<uint64_t> OffsetsOf(std::string_view key) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
  uint32_t num_shifts() const { return num_shifts_; }
  uint32_t num_groups() const { return num_hashes_ / (num_shifts_ + 1); }
  void Clear() { bits_.Clear(); }

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<GeneralizedShbfM>* out);

 private:
  /// Builds the (t+1)-bit window mask {bit 0} ∪ {bit o_j}.
  uint64_t NeedMask(const HashFamily::BoundKey& h) const;

  HashFamily family_;  // k/(t+1) base functions, then t offset functions
  uint32_t num_hashes_;
  uint32_t num_shifts_;
  uint32_t max_offset_span_;
  uint32_t partition_width_;  // (w̄ − 1) / t
  BitArray bits_;
};

}  // namespace shbf

#endif  // SHBF_SHBF_GENERALIZED_SHBF_H_
