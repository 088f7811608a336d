// ShBF_M — the Shifting Bloom Filter for membership queries (paper §3).
//
// Instead of k independent bit positions, ShBF_M uses k/2 base positions
// h_1(e)%m, ..., h_{k/2}(e)%m plus ONE shared offset
//     o(e) = h_{k/2+1}(e) % (w̄ − 1) + 1   ∈ [1, w̄ − 1],
// and sets both B[h_i(e)%m] and B[h_i(e)%m + o(e)] for every i. A query
// checks the same k bits, but because o(e) < w̄ ≤ w − 7 both bits of a pair
// sit inside one unaligned word load:
//   * hash computations drop from k to k/2 + 1,
//   * memory accesses drop from k to k/2,
// while the FPR stays within noise of a standard k-hash Bloom filter
// (Eq (1) vs Eq (8); minimum 0.6204^{m/n} vs 0.6185^{m/n}).
//
// It is the t = 1 member of the shifting family (shbf/windowed_filter.h).
// This class adds its Params and serde.

#ifndef SHBF_SHBF_SHBF_MEMBERSHIP_H_
#define SHBF_SHBF_SHBF_MEMBERSHIP_H_

#include <optional>
#include <string>
#include <string_view>

#include "shbf/windowed_filter.h"

namespace shbf {

class ShbfM : public WindowedFilter {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m
    uint32_t num_hashes = 0;  ///< k; must be even (k/2 pairs), >= 2, <= m
    /// w̄: offsets lie in [1, max_offset_span − 1]. The default 57 (= w − 7)
    /// guarantees one-access pairs on 64-bit machines and is large enough
    /// that the FPR penalty vs BF is negligible (Fig 3: w̄ > 20 suffices).
    uint32_t max_offset_span = kDefaultMaxOffsetSpan;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Layout layout() const {
      return {.num_bits = num_bits,
              .num_hashes = num_hashes,
              .num_shifts = 1,
              .max_offset_span = max_offset_span,
              .hash_algorithm = hash_algorithm,
              .seed = seed};
    }
    Status Validate() const { return layout().Validate("ShbfM"); }
  };

  explicit ShbfM(const Params& params) : WindowedFilter(params.layout()) {}

  /// Wraps the bits of a mapped image; see WindowedFilter.
  ShbfM(const Params& params, BitArray bits, size_t num_elements)
      : WindowedFilter(params.layout(), std::move(bits), num_elements) {}

  /// The offset o(key) ∈ [1, max_offset_span − 1]; exposed for tests.
  uint64_t OffsetOf(std::string_view key) const { return OffsetsOf(key)[0]; }

  uint32_t num_pairs() const { return num_groups(); }

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes, std::optional<ShbfM>* out);
};

}  // namespace shbf

#endif  // SHBF_SHBF_SHBF_MEMBERSHIP_H_
