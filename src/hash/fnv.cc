#include "hash/fnv.h"

#include "hash/murmur3.h"

namespace shbf {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return murmur3_detail::FMix64(h);
}

}  // namespace shbf
