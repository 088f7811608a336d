// MurmurHash3 x64-128 (Austin Appleby, public domain algorithm),
// reimplemented from the published finalization constants. Used as the
// default high-quality 64-bit hash for the filters.
//
// The hash runs in two steps so that a family of k seeded functions pays
// for the key bytes once:
//   - Murmur3KeyPass, which no seed enters: it reads the tail words (with
//     overlapping loads, not a byte-by-byte switch) and mixes them;
//   - Murmur3Finish, once per seed: the 16-byte block rounds, the tail and
//     length folds, and the two FMix64s.
// Murmur3_128(data, len, seed) is Murmur3Finish(Murmur3KeyPass(data, len),
// seed), bit for bit the published algorithm. This header is the only place
// murmur3's constants appear.

#ifndef SHBF_HASH_MURMUR3_H_
#define SHBF_HASH_MURMUR3_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

namespace shbf {

namespace murmur3_detail {

inline constexpr uint64_t kC1 = 0x87c37b91114253d5ull;
inline constexpr uint64_t kC2 = 0x4cf5ad432745937full;

inline uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t FMix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The per-word premixes; both map 0 to 0, so an absent tail word mixes to
/// a no-op XOR.
inline uint64_t MixK1(uint64_t k1) { return Rotl64(k1 * kC1, 31) * kC2; }
inline uint64_t MixK2(uint64_t k2) { return Rotl64(k2 * kC2, 33) * kC1; }

}  // namespace murmur3_detail

/// The seed-free part of one key's murmur3: what every seed's finish reads.
struct Murmur3Key {
  const uint8_t* data;  // the key; each finish rereads its 16-byte blocks
  size_t len;
  uint64_t fold1;  // mixed tail word k1, XOR the length: folded into h1
  uint64_t fold2;  // mixed tail word k2, XOR the length: folded into h2
};

/// Reads the key's tail (the len % 16 bytes after the last whole block) as
/// the little-endian words k1 (bytes 0–7) and k2 (bytes 8–14), without
/// touching a byte outside [data, data + len), and premixes them.
inline Murmur3Key Murmur3KeyPass(const void* data, size_t len) {
  using murmur3_detail::Load32;
  using murmur3_detail::Load64;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const uint8_t* tail = bytes + (len & ~size_t{15});
  const size_t t = len & 15;
  uint64_t k1 = 0;
  uint64_t k2 = 0;
  if (t >= 8) {
    k1 = Load64(tail);
    // The last 8 bytes end the key; k2 is their top t − 8 bytes (none at
    // t = 8). Two shifts keep every count below 64.
    k2 = (Load64(bytes + len - 8) >> 8) >> (8 * (15 - t));
  } else if (len >= 16) {
    // A whole block precedes the tail, so 8 bytes ending at the key's end
    // are in bounds; k1 is their top t bytes (none at t = 0).
    k1 = (Load64(bytes + len - 8) >> 8) >> (8 * (7 - t));
  } else if (t >= 4) {
    // Two 4-byte loads that overlap when t < 8; the overlap ORs equal bytes.
    k1 = Load32(tail) | (Load32(tail + t - 4) << (8 * (t - 4)));
  } else if (t > 0) {
    k1 = uint64_t{tail[0]} | (uint64_t{tail[t / 2]} << (8 * (t / 2))) |
         (uint64_t{tail[t - 1]} << (8 * (t - 1)));
  }
  return {bytes, len,
          murmur3_detail::MixK1(k1) ^ static_cast<uint64_t>(len),
          murmur3_detail::MixK2(k2) ^ static_cast<uint64_t>(len)};
}

/// One seed's hash of a key that went through Murmur3KeyPass, as
/// (low, high). Inline so a family's k evaluations and a split-block
/// probe's single pass fold into their callers.
inline std::pair<uint64_t, uint64_t> Murmur3Finish(const Murmur3Key& key,
                                                   uint64_t seed) {
  using murmur3_detail::FMix64;
  using murmur3_detail::Load64;
  using murmur3_detail::MixK1;
  using murmur3_detail::MixK2;
  using murmur3_detail::Rotl64;
  uint64_t h1 = seed;
  uint64_t h2 = seed;
  const size_t nblocks = key.len / 16;
  for (size_t i = 0; i < nblocks; ++i) {
    h1 ^= MixK1(Load64(key.data + i * 16));
    h1 = Rotl64(h1, 27); h1 += h2; h1 = h1 * 5 + 0x52dce729;
    h2 ^= MixK2(Load64(key.data + i * 16 + 8));
    h2 = Rotl64(h2, 31); h2 += h1; h2 = h2 * 5 + 0x38495ab5;
  }
  h1 ^= key.fold1;
  h2 ^= key.fold2;
  h1 += h2;
  h2 += h1;
  h1 = FMix64(h1);
  h2 = FMix64(h2);
  h1 += h2;
  h2 += h1;
  return {h1, h2};
}

/// Full 128-bit result as (low, high).
inline std::pair<uint64_t, uint64_t> Murmur3_128(const void* data, size_t len,
                                                 uint64_t seed) {
  return Murmur3Finish(Murmur3KeyPass(data, len), seed);
}

/// Low 64 bits of the 128-bit result.
uint64_t Murmur3_64(const void* data, size_t len, uint64_t seed);

inline uint64_t Murmur3_64(std::string_view key, uint64_t seed) {
  return Murmur3_64(key.data(), key.size(), seed);
}

}  // namespace shbf

#endif  // SHBF_HASH_MURMUR3_H_
