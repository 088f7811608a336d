// FNV-1a 64-bit hash with murmur3's fmix64 finalizer. Fast for very short
// keys; included to let the hash-strategy ablation contrast a weak-but-cheap
// hash with the paper's Jenkins hashes.

#ifndef SHBF_HASH_FNV_H_
#define SHBF_HASH_FNV_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace shbf {

/// Seeded FNV-1a over `len` bytes, with finalization mixing so the high bits
/// are usable for modulo reduction.
uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed);

inline uint64_t Fnv1a64(std::string_view key, uint64_t seed) {
  return Fnv1a64(key.data(), key.size(), seed);
}

}  // namespace shbf

#endif  // SHBF_HASH_FNV_H_
