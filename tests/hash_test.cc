#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "hash/bob_hash.h"
#include "hash/fnv.h"
#include "hash/hash_family.h"
#include "hash/murmur3.h"

namespace shbf {
namespace {

/// `bytes` copied into an allocation of exactly its size, so that an
/// address-sanitized build flags any read past the key's last byte.
std::unique_ptr<uint8_t[]> ExactCopy(const std::string& bytes) {
  std::unique_ptr<uint8_t[]> copy(new uint8_t[bytes.size()]);
  if (!bytes.empty()) std::memcpy(copy.get(), bytes.data(), bytes.size());
  return copy;
}

std::vector<std::string> SampleKeys(size_t count, size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) keys.push_back(rng.NextBytes(len));
  return keys;
}

// --- determinism / seed sensitivity, one suite per algorithm -----------------

class HashAlgorithmTest : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(HashAlgorithmTest, DeterministicForSameInput) {
  HashFamily family(GetParam(), 4, 99);
  for (const std::string& key : SampleKeys(50, 13, 7)) {
    EXPECT_EQ(family.Hash(0, key), family.Hash(0, key));
  }
}

TEST_P(HashAlgorithmTest, FunctionIndicesAreIndependent) {
  HashFamily family(GetParam(), 8, 99);
  std::string key = "independence-check";
  std::set<uint64_t> values;
  for (uint32_t i = 0; i < 8; ++i) values.insert(family.Hash(i, key));
  // All 8 functions should produce distinct values on one key.
  EXPECT_EQ(values.size(), 8u);
}

TEST_P(HashAlgorithmTest, SeedChangesOutput) {
  HashFamily a(GetParam(), 1, 1);
  HashFamily b(GetParam(), 1, 2);
  int collisions = 0;
  for (const std::string& key : SampleKeys(100, 13, 11)) {
    collisions += (a.Hash(0, key) == b.Hash(0, key));
  }
  EXPECT_LE(collisions, 1);
}

TEST_P(HashAlgorithmTest, AllKeyLengthsHashWithoutCrashing) {
  HashFamily family(GetParam(), 1, 5);
  Rng rng(3);
  for (size_t len = 0; len <= 64; ++len) {
    std::string key = rng.NextBytes(len);
    family.Hash(0, key);  // must not over-read; ASAN-able
  }
}

TEST_P(HashAlgorithmTest, SingleBitFlipChangesHash) {
  HashFamily family(GetParam(), 1, 5);
  std::string key(13, '\0');
  uint64_t base = family.Hash(0, key);
  int unchanged = 0;
  for (size_t byte = 0; byte < key.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = key;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      unchanged += (family.Hash(0, flipped) == base);
    }
  }
  EXPECT_EQ(unchanged, 0);
}

TEST_P(HashAlgorithmTest, FewCollisionsOnDistinctKeys) {
  HashFamily family(GetParam(), 1, 77);
  std::set<uint64_t> values;
  auto keys = SampleKeys(20000, 13, 13);
  for (const std::string& key : keys) values.insert(family.Hash(0, key));
  // 32-bit algorithms may see a handful of birthday collisions at 20k keys;
  // 64-bit ones essentially none.
  size_t min_distinct =
      HashAlgorithmBits(GetParam()) == 32 ? keys.size() - 10 : keys.size();
  EXPECT_GE(values.size(), min_distinct);
}

TEST_P(HashAlgorithmTest, BoundKeyMatchesHashForEveryFunction) {
  // h(i) == Hash(i, key) bit for bit: filters evaluate their functions
  // through Bind, and files written through Hash must still answer.
  HashFamily family(GetParam(), 40, 0xb1d);
  Rng rng(17);
  for (size_t len = 0; len <= 150; ++len) {
    const std::string bytes = rng.NextBytes(len);
    const auto key = ExactCopy(bytes);
    const auto h = family.Bind(key.get(), len);
    for (uint32_t i = 0; i < family.num_functions(); ++i) {
      ASSERT_EQ(h(i), family.Hash(i, bytes)) << "len " << len << " fn " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, HashAlgorithmTest,
    ::testing::Values(HashAlgorithm::kMurmur3, HashAlgorithm::kBobLookup3,
                      HashAlgorithm::kBobLookup2, HashAlgorithm::kFnv1a),
    [](const auto& info) { return HashAlgorithmName(info.param); });

// --- algorithm-specific checks ------------------------------------------------

TEST(HashFamilyTest, NamesAndBits) {
  EXPECT_STREQ(HashAlgorithmName(HashAlgorithm::kMurmur3), "murmur3");
  EXPECT_STREQ(HashAlgorithmName(HashAlgorithm::kBobLookup2), "lookup2");
  EXPECT_STREQ(HashAlgorithmName(HashAlgorithm::kBobLookup3), "lookup3");
  EXPECT_STREQ(HashAlgorithmName(HashAlgorithm::kFnv1a), "fnv1a");
  EXPECT_EQ(HashAlgorithmBits(HashAlgorithm::kBobLookup2), 32u);
  EXPECT_EQ(HashAlgorithmBits(HashAlgorithm::kMurmur3), 64u);
}

TEST(HashFamilyTest, MasterSeedExpansionIsStable) {
  HashFamily a(HashAlgorithm::kMurmur3, 3, 42);
  HashFamily b(HashAlgorithm::kMurmur3, 3, 42);
  EXPECT_EQ(a.Hash(2, "stable"), b.Hash(2, "stable"));
  EXPECT_EQ(a.master_seed(), 42u);
  EXPECT_EQ(a.num_functions(), 3u);
}

/// Murmur3_128 as this repository wrote it before the seed-free key pass
/// was split from the per-seed finish: one pass per seed, with the
/// byte-by-byte tail switch. The reference the split version must match.
std::pair<uint64_t, uint64_t> ByteSwitchMurmur3_128(const void* data,
                                                    size_t len, uint64_t seed) {
  auto rotl = [](uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto fmix = [](uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
  };
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const size_t nblocks = len / 16;
  uint64_t h1 = seed;
  uint64_t h2 = seed;
  const uint64_t c1 = 0x87c37b91114253d5ull;
  const uint64_t c2 = 0x4cf5ad432745937full;
  for (size_t i = 0; i < nblocks; ++i) {
    uint64_t k1;
    uint64_t k2;
    std::memcpy(&k1, bytes + i * 16, 8);
    std::memcpy(&k2, bytes + i * 16 + 8, 8);
    k1 *= c1; k1 = rotl(k1, 31); k1 *= c2; h1 ^= k1;
    h1 = rotl(h1, 27); h1 += h2; h1 = h1 * 5 + 0x52dce729;
    k2 *= c2; k2 = rotl(k2, 33); k2 *= c1; h2 ^= k2;
    h2 = rotl(h2, 31); h2 += h1; h2 = h2 * 5 + 0x38495ab5;
  }
  const uint8_t* tail = bytes + nblocks * 16;
  uint64_t k1 = 0;
  uint64_t k2 = 0;
  switch (len & 15) {
    case 15: k2 ^= static_cast<uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<uint64_t>(tail[8]);
      k2 *= c2; k2 = rotl(k2, 33); k2 *= c1; h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<uint64_t>(tail[0]);
      k1 *= c1; k1 = rotl(k1, 31); k1 *= c2; h1 ^= k1;
      break;
    default:
      break;
  }
  h1 ^= static_cast<uint64_t>(len);
  h2 ^= static_cast<uint64_t>(len);
  h1 += h2;
  h2 += h1;
  h1 = fmix(h1);
  h2 = fmix(h2);
  h1 += h2;
  h2 += h1;
  return {h1, h2};
}

TEST(Murmur3Test, MatchesByteSwitchReferenceOverRandomSeeds) {
  Rng rng(0x5eed);
  for (int round = 0; round < 16; ++round) {
    const uint64_t seed = rng.Next();
    for (size_t len = 0; len <= 150; ++len) {
      const auto key = ExactCopy(rng.NextBytes(len));
      ASSERT_EQ(Murmur3_128(key.get(), len, seed),
                ByteSwitchMurmur3_128(key.get(), len, seed))
          << "len " << len << " seed " << seed;
    }
  }
}

TEST(Murmur3Test, MatchesReferenceVector) {
  // Reference: MurmurHash3_x64_128("hello", seed=0) =
  // cbd8a7b341bd9b02 5b1e906a48ae1d19 (high/low from Appleby's smhasher).
  auto [low, high] = Murmur3_128("hello", 5, 0);
  EXPECT_EQ(low, 0xcbd8a7b341bd9b02ull);
  EXPECT_EQ(high, 0x5b1e906a48ae1d19ull);
}

TEST(Murmur3Test, EmptyInputSeedZero) {
  auto [low, high] = Murmur3_128("", 0, 0);
  EXPECT_EQ(low, 0u);
  EXPECT_EQ(high, 0u);
}

TEST(Murmur3Test, HalvesAreIndependent) {
  Rng rng(8);
  size_t equal = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string key = rng.NextBytes(13);
    auto [low, high] = Murmur3_128(key.data(), key.size(), 7);
    equal += (low == high);
  }
  EXPECT_EQ(equal, 0u);
}

TEST(Murmur3Test, AllTailLengthsChangeTheHash) {
  // Appending one byte must change the result for every residue of
  // len mod 16: every tail length is read.
  std::string key;
  uint64_t prev = Murmur3_64(key.data(), key.size(), 1);
  for (int i = 1; i <= 33; ++i) {
    key.push_back('a');
    uint64_t h = Murmur3_64(key.data(), key.size(), 1);
    EXPECT_NE(h, prev) << "length " << i;
    prev = h;
  }
}

TEST(BobHashTest, Lookup2MatchesSelfAcrossChunkBoundaries) {
  // 12-byte blocks: lengths 11, 12, 13 exercise the tail switch.
  for (size_t len : {0u, 1u, 4u, 8u, 11u, 12u, 13u, 23u, 24u, 25u}) {
    std::string key(len, 'x');
    uint32_t h1 = BobLookup2(key, 1);
    uint32_t h2 = BobLookup2(key, 1);
    EXPECT_EQ(h1, h2) << len;
  }
}

TEST(BobHashTest, Lookup3ProducesTwoIndependentHalves) {
  auto keys = SampleKeys(5000, 13, 21);
  size_t equal_halves = 0;
  for (const std::string& key : keys) {
    uint64_t h = BobLookup3(key, 9);
    equal_halves += (static_cast<uint32_t>(h) == static_cast<uint32_t>(h >> 32));
  }
  EXPECT_LE(equal_halves, 2u);
}

TEST(FnvTest, MatchesUnseededFnvPrefixProperty) {
  // Same input, same seed → equal; differing final byte → different.
  EXPECT_EQ(Fnv1a64("abc", 3, 0), Fnv1a64("abc", 3, 0));
  EXPECT_NE(Fnv1a64("abc", 3, 0), Fnv1a64("abd", 3, 0));
}

}  // namespace
}  // namespace shbf
