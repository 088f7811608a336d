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
//
// The core is shbf/windowed_filter.h; this class adds its Params and serde,
// whose layout carries t and no element count.

#ifndef SHBF_SHBF_GENERALIZED_SHBF_H_
#define SHBF_SHBF_GENERALIZED_SHBF_H_

#include <optional>
#include <string>
#include <string_view>

#include "shbf/windowed_filter.h"

namespace shbf {

class GeneralizedShbfM : public WindowedFilter {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m
    uint32_t num_hashes = 0;  ///< k total bits per element, at most m
    uint32_t num_shifts = 1;  ///< t in [1, 56]; k must be divisible by t + 1
    /// w̄; (w̄ − 1) must be divisible by t so the partitions are equal.
    /// With the default 57: t ∈ {1, 2, 4, 7, 8, 14, 28, 56}.
    uint32_t max_offset_span = kDefaultMaxOffsetSpan;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Layout layout() const {
      return {.num_bits = num_bits,
              .num_hashes = num_hashes,
              .num_shifts = num_shifts,
              .max_offset_span = max_offset_span,
              .hash_algorithm = hash_algorithm,
              .seed = seed};
    }
    Status Validate() const;
  };

  explicit GeneralizedShbfM(const Params& params)
      : WindowedFilter(params.layout()) {}

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<GeneralizedShbfM>* out);
};

}  // namespace shbf

#endif  // SHBF_SHBF_GENERALIZED_SHBF_H_
