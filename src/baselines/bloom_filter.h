// Standard Bloom filter (Bloom, CACM 1970) — the membership baseline.
//
// k independent hash functions over an m-bit array; insert sets the k bits
// h_i(e) % m, a query ANDs them. No false negatives; false-positive rate
// f_BF ≈ (1 − e^{−nk/m})^k (paper Eq (8)). Queries terminate early at the
// first zero bit, and under the paper's cost model each bit probe is one
// memory access — which is exactly why ShBF_M halves the query cost.
//
// It is the t = 0 member of the shifting family (shbf/windowed_filter.h):
// need mask 1 and no slack bits. This class adds its Params and serde.

#ifndef SHBF_BASELINES_BLOOM_FILTER_H_
#define SHBF_BASELINES_BLOOM_FILTER_H_

#include <optional>
#include <string>
#include <string_view>

#include "shbf/windowed_filter.h"

namespace shbf {

/// Library-wide default seed; every structure takes an explicit override.
inline constexpr uint64_t kDefaultSeed = 0x5eed5eed5eed5eedull;

class BloomFilter : public WindowedFilter {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m
    uint32_t num_hashes = 0;  ///< k, at most m
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = kDefaultSeed;

    Layout layout() const {
      return {.num_bits = num_bits,
              .num_hashes = num_hashes,
              .hash_algorithm = hash_algorithm,
              .seed = seed};
    }
    Status Validate() const { return layout().Validate("BloomFilter"); }
  };

  /// m minimizing FPR for n elements at false-positive target `fpr`:
  /// m = −n·ln f / (ln 2)². Rounded up.
  static size_t OptimalNumBits(size_t num_elements, double fpr);

  /// k minimizing FPR for given m, n: k = (m/n)·ln 2, at least 1.
  static uint32_t OptimalNumHashes(size_t num_bits, size_t num_elements);

  explicit BloomFilter(const Params& params)
      : WindowedFilter(params.layout()) {}

  /// Wraps the bits of a mapped image; see WindowedFilter.
  BloomFilter(const Params& params, BitArray bits, size_t num_elements)
      : WindowedFilter(params.layout(), std::move(bits), num_elements) {}

  /// Serializes parameters + bit payload to a versioned byte blob. Summary-
  /// Cache-style protocols ship these between nodes (§2.2).
  std::string ToBytes() const;

  /// Reconstructs a filter from ToBytes() output. On success `*out` holds a
  /// filter answering identically to the original.
  static Status FromBytes(std::string_view bytes,
                          std::optional<BloomFilter>* out);
};

}  // namespace shbf

#endif  // SHBF_BASELINES_BLOOM_FILTER_H_
