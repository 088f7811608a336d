// A seeded family of k independent hash functions with uniformly distributed
// outputs — the h_1(.), ..., h_k(.) every scheme in the paper assumes.
//
// One master seed is expanded into k per-function seeds via SplitMix64, so a
// family is fully determined by (algorithm, k, master_seed) and experiments
// are replayable. The paper drew its functions from Bob Jenkins' collection
// and kept the 18 that passed a per-bit randomness test (§6.1); the same test
// lives in hash/randomness.h and runs in the test suite.
//
// A filter that evaluates several functions on one key binds the key first
// (`const auto h = family_.Bind(key);`, then `h(i)`). For murmur3 the key's
// bytes are mixed once per family and each function pays only a per-seed
// finish; the paper's cost model (QueryStats) still counts one hash
// computation per function evaluated.

#ifndef SHBF_HASH_HASH_FAMILY_H_
#define SHBF_HASH_HASH_FAMILY_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/check.h"
#include "hash/murmur3.h"

namespace shbf {

enum class HashAlgorithm {
  kMurmur3 = 0,     // 64-bit, default
  kBobLookup3 = 1,  // 64-bit, the paper's burtleburtle.net successor hash
  kBobLookup2 = 2,  // 32-bit, the paper's "evahash"
  kFnv1a = 3,       // 64-bit, cheap comparator for ablations
};

/// Short stable name for reports ("murmur3", "lookup3", ...).
const char* HashAlgorithmName(HashAlgorithm alg);

/// Output width in bits (32 for lookup2, 64 otherwise).
uint32_t HashAlgorithmBits(HashAlgorithm alg);

class HashFamily {
 public:
  /// One key bound to a family: h(i) == Hash(i, key) bit for bit, evaluated
  /// on demand so an early-exit probe loop still stops at its first miss.
  /// For murmur3 the seed-free key pass ran once in Bind and h(i) is one
  /// finish; lookup3, lookup2 and FNV start from the seed, so h(i) is
  /// Hash(i, key). Holds a pointer to the key's bytes and to the family:
  /// both must outlive it.
  class BoundKey {
   public:
    uint64_t operator()(uint32_t i) const {
      SHBF_DCHECK(i < family_->seeds_.size());
      if (family_->alg_ == HashAlgorithm::kMurmur3) {
        return Murmur3Finish(key_, family_->seeds_[i]).first;
      }
      return family_->Hash(i, key_.data, key_.len);
    }

   private:
    friend class HashFamily;
    BoundKey(const HashFamily* family, const Murmur3Key& key)
        : family_(family), key_(key) {}

    const HashFamily* family_;
    Murmur3Key key_;  // only data and len are read for the other algorithms
  };

  HashFamily(HashAlgorithm alg, uint32_t num_functions, uint64_t master_seed);

  uint32_t num_functions() const {
    return static_cast<uint32_t>(seeds_.size());
  }
  HashAlgorithm algorithm() const { return alg_; }
  uint64_t master_seed() const { return master_seed_; }

  /// Evaluates the i-th function on `len` bytes at `data`.
  uint64_t Hash(uint32_t i, const void* data, size_t len) const;

  /// Two 64-bit hashes in one pass over the key bytes where the algorithm
  /// natively emits 128 bits (murmur3's two halves — the second of which
  /// Hash() discards); otherwise falls back to {Hash(i), Hash(i+1)}.
  /// NOTE: the murmur3 pair is NOT {Hash(i), Hash(i+1)} — callers define
  /// their bit placement in terms of this function and must use it on both
  /// the insert and the query side. Requires i + 1 < num_functions() for
  /// the fallback algorithms. The murmur3 branch is inline so a split-block
  /// derivation's single hash pass folds into its caller.
  std::pair<uint64_t, uint64_t> HashPair(uint32_t i, const void* data,
                                         size_t len) const {
    SHBF_DCHECK(i < seeds_.size());
    if (alg_ == HashAlgorithm::kMurmur3) {
      return Murmur3_128(data, len, seeds_[i]);
    }
    return HashPairFallback(i, data, len);
  }

  std::pair<uint64_t, uint64_t> HashPair(uint32_t i,
                                         std::string_view key) const {
    return HashPair(i, key.data(), key.size());
  }

  uint64_t Hash(uint32_t i, std::string_view key) const {
    return Hash(i, key.data(), key.size());
  }

  /// Binds `len` bytes at `data` for evaluation under several functions.
  BoundKey Bind(const void* data, size_t len) const {
    if (alg_ == HashAlgorithm::kMurmur3) {
      return BoundKey(this, Murmur3KeyPass(data, len));
    }
    return BoundKey(this, {static_cast<const uint8_t*>(data), len, 0, 0});
  }

  BoundKey Bind(std::string_view key) const {
    return Bind(key.data(), key.size());
  }

 private:
  /// The two-pass pair for algorithms without a native 128-bit output.
  std::pair<uint64_t, uint64_t> HashPairFallback(uint32_t i, const void* data,
                                                 size_t len) const;

  HashAlgorithm alg_;
  uint64_t master_seed_;
  std::vector<uint64_t> seeds_;
};

}  // namespace shbf

#endif  // SHBF_HASH_HASH_FAMILY_H_
