// Split-block ShBF_M — shifting pairs with a one-block resolve.
//
// Confining all k/2 (base, base+offset) pairs to one block still leaves a
// blocked ShBF_M resolving them as k/2 separate unaligned window loads.
// The split-block variant pins pair i to sub-word i % num_sub of its block
// and places the pair on the sub-word's CIRCLE: first bit at rotation
// r(e, i), uniform over all sub_block_bits positions, second bit at
// (r + o(e)) mod sub_block_bits. The pair patterns OR into one whole-block
// mask, so ONE BlockSubsetTest answers all pairs of a key at once. The core
// (shbf/split_block_filter.h) holds the layout, derivation and resolve.
//
// Offsets live in [1, max_offset_span − 1] with max_offset_span <
// sub_block_bits (default sub_block_bits/2 = 32). Keys sharing a block
// collide more than in plain ShBF_M; the acceptance gate bounds the
// penalty at 2x at equal bits/key.

#ifndef SHBF_SHBF_SPLIT_BLOCK_SHBF_MEMBERSHIP_H_
#define SHBF_SHBF_SPLIT_BLOCK_SHBF_MEMBERSHIP_H_

#include <optional>
#include <string>
#include <string_view>

#include "shbf/split_block_filter.h"

namespace shbf {

class SplitBlockShbfM : public SplitBlockFilter {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m; rounded up to a multiple of block_bits
    uint32_t num_hashes = 0;  ///< k; must be even in [2, 64] (k/2 pairs)
    uint32_t block_bits = 256;     ///< multiple of 64 in [64, 512]
    uint32_t sub_block_bits = 64;  ///< power of two in [16, 64]
    /// w̄: offsets lie in [1, max_offset_span − 1]; must stay below
    /// sub_block_bits so a pair never leaves its sub-word.
    uint32_t max_offset_span = 32;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Layout layout() const {
      return {.num_bits = num_bits,
              .num_hashes = num_hashes,
              .block_bits = block_bits,
              .sub_block_bits = sub_block_bits,
              .max_offset_span = max_offset_span,
              .hash_algorithm = hash_algorithm,
              .seed = seed};
    }
    Status Validate() const {
      // A span of 0 would read as the single-bit layout.
      if (max_offset_span < 2) {
        return Status::InvalidArgument(
            "SplitBlockShbfM: max_offset_span must be >= 2 so offsets are "
            "nonzero");
      }
      return layout().Validate("SplitBlockShbfM");
    }
  };

  explicit SplitBlockShbfM(const Params& params)
      : SplitBlockFilter(params.layout()) {}

  /// Wraps the bits of a mapped image; see SplitBlockFilter.
  SplitBlockShbfM(const Params& params, BitArray bits, size_t num_elements)
      : SplitBlockFilter(params.layout(), std::move(bits), num_elements) {}

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<SplitBlockShbfM>* out);
};

}  // namespace shbf

#endif  // SHBF_SHBF_SPLIT_BLOCK_SHBF_MEMBERSHIP_H_
