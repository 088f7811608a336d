// The SIMD probe kernels (core/simd.h) are an execution strategy, never a
// semantic change: every dispatched entry point must match its scalar
// reference bit for bit on random inputs, at every length (the vector
// bodies have 4-lane / 2-lane main loops plus scalar tails — odd lengths
// exercise both), and the ForceScalar override must actually demote the
// dispatcher.

#include "core/simd.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_features.h"

namespace shbf {
namespace {

/// Runs `body` twice: once with the dispatcher free to pick the hardware
/// path, once pinned to scalar. Restores the override afterwards.
template <typename Body>
void UnderBothDispatchModes(const Body& body) {
  simd::ForceScalar(false);
  body();
  simd::ForceScalar(true);
  body();
  simd::ForceScalar(false);
}

TEST(SimdKernelTest, ForceScalarDemotesTheDispatcher) {
  simd::ForceScalar(true);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  simd::ForceScalar(false);
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
}

TEST(SimdKernelTest, BlockSubsetTestMatchesScalarForEveryBlockWidth) {
  std::mt19937_64 rng(0xb10c);
  for (size_t num_words = 1; num_words <= 8; ++num_words) {
    for (int trial = 0; trial < 200; ++trial) {
      alignas(64) uint64_t block[8];
      uint64_t mask[8];
      for (size_t w = 0; w < num_words; ++w) {
        block[w] = rng();
        mask[w] = block[w] & rng();  // subset by construction
      }
      // Half the trials flip one mask bit off the block: a guaranteed miss
      // in a single word, which the early-exit loops must agree on too.
      if (trial % 2 == 1) {
        const size_t w = rng() % num_words;
        mask[w] |= ~block[w] & (1ull << (rng() % 64));
      }
      const uint8_t* bytes = reinterpret_cast<const uint8_t*>(block);
      const bool expected =
          simd::BlockSubsetTestScalar(bytes, mask, num_words);
      UnderBothDispatchModes([&] {
        ASSERT_EQ(simd::BlockSubsetTest(bytes, mask, num_words), expected)
            << "num_words=" << num_words << " trial=" << trial;
      });
    }
  }
}

TEST(SimdKernelTest, MaskFromShiftsMatchesScalarAtEveryLength) {
  std::mt19937_64 rng(0x5f1f7);
  // Patterns the split-block filters actually shift: a single bit, the
  // ShBF two-bit pair, and a dense byte. Shift 0 and 63 (the in-word
  // extremes) always appear; lengths cover the 4-lane / 8-lane main loops
  // plus their scalar tails.
  for (uint64_t pattern :
       {uint64_t{1}, uint64_t{1} | (uint64_t{1} << 9), uint64_t{0xff}}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                     size_t{8}, size_t{9}, size_t{33}, size_t{64}}) {
      std::vector<uint64_t> shifts(n);
      for (size_t i = 0; i < n; ++i) {
        shifts[i] = (i == 0) ? 0 : (i == 1 ? 63 : rng() % 64);
      }
      std::vector<uint64_t> expected(n);
      simd::MaskFromShiftsScalar(shifts.data(), pattern, n, expected.data());
      UnderBothDispatchModes([&] {
        std::vector<uint64_t> got(n, ~0ull);
        simd::MaskFromShifts(shifts.data(), pattern, n, got.data());
        ASSERT_EQ(got, expected) << "pattern=" << pattern << " n=" << n;
      });
    }
  }
}

}  // namespace
}  // namespace shbf
