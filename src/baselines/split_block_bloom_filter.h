// Split-block Bloom filter (cf. Boost.Bloom's multiblock<> subfilters) —
// the one-block-read-per-key membership baseline.
//
// Probe i sets one bit in sub-word i % num_sub of the key's block; the core
// (shbf/split_block_filter.h) holds the layout, derivation and resolve.
// When k < num_sub some sub-words go permanently unused (wasted bits); the
// registry factory sizes block_bits = k * sub_block_bits (clamped) so the
// default geometry wastes nothing and probe i owns word i.
//
// FPR: one probe per sub-word is the classic partitioned-Bloom variant of
// a blocked filter — the Poisson block-loading penalty, bounded by the
// bench's acceptance gate at 2x the unblocked base at equal bits/key.

#ifndef SHBF_BASELINES_SPLIT_BLOCK_BLOOM_FILTER_H_
#define SHBF_BASELINES_SPLIT_BLOCK_BLOOM_FILTER_H_

#include <optional>
#include <string>
#include <string_view>

#include "shbf/split_block_filter.h"

namespace shbf {

class SplitBlockBloomFilter : public SplitBlockFilter {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m; rounded up to a multiple of block_bits
    uint32_t num_hashes = 0;  ///< k probes in [1, 64], one per sub-word
    uint32_t block_bits = 512;      ///< multiple of 64 in [64, 512]
    uint32_t sub_block_bits = 64;   ///< power of two in [8, 64]
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Layout layout() const {
      return {.num_bits = num_bits,
              .num_hashes = num_hashes,
              .block_bits = block_bits,
              .sub_block_bits = sub_block_bits,
              .hash_algorithm = hash_algorithm,
              .seed = seed};
    }
    Status Validate() const {
      return layout().Validate("SplitBlockBloomFilter");
    }
  };

  explicit SplitBlockBloomFilter(const Params& params)
      : SplitBlockFilter(params.layout()) {}

  /// Wraps the bits of a mapped image; see SplitBlockFilter.
  SplitBlockBloomFilter(const Params& params, BitArray bits,
                        size_t num_elements)
      : SplitBlockFilter(params.layout(), std::move(bits), num_elements) {}

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<SplitBlockBloomFilter>* out);
};

}  // namespace shbf

#endif  // SHBF_BASELINES_SPLIT_BLOCK_BLOOM_FILTER_H_
