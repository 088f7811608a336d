#include "core/packed_counter_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "core/rng.h"

namespace shbf {
namespace {

TEST(PackedCounterArrayTest, StartsZero) {
  PackedCounterArray counters(100, 4);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(counters.Get(i), 0u);
  EXPECT_EQ(counters.CountZero(), 100u);
}

TEST(PackedCounterArrayTest, MaxValueByWidth) {
  EXPECT_EQ(PackedCounterArray(10, 1).max_value(), 1u);
  EXPECT_EQ(PackedCounterArray(10, 4).max_value(), 15u);
  EXPECT_EQ(PackedCounterArray(10, 6).max_value(), 63u);
  EXPECT_EQ(PackedCounterArray(10, 32).max_value(), 0xffffffffull);
}

TEST(PackedCounterArrayTest, SetGetRoundTrip) {
  PackedCounterArray counters(64, 6);
  counters.Set(0, 63);
  counters.Set(1, 1);
  counters.Set(63, 42);
  EXPECT_EQ(counters.Get(0), 63u);
  EXPECT_EQ(counters.Get(1), 1u);
  EXPECT_EQ(counters.Get(63), 42u);
  // Neighbors untouched.
  EXPECT_EQ(counters.Get(2), 0u);
  EXPECT_EQ(counters.Get(62), 0u);
}

TEST(PackedCounterArrayTest, IncrementAndDecrement) {
  PackedCounterArray counters(8, 4);
  EXPECT_TRUE(counters.Increment(3));
  EXPECT_TRUE(counters.Increment(3));
  EXPECT_EQ(counters.Get(3), 2u);
  counters.Decrement(3);
  EXPECT_EQ(counters.Get(3), 1u);
  counters.Decrement(3);
  EXPECT_EQ(counters.Get(3), 0u);
}

TEST(PackedCounterArrayTest, SaturationSticksAndDecrementIgnoresStuck) {
  PackedCounterArray counters(4, 2);  // max value 3
  EXPECT_TRUE(counters.Increment(0));
  EXPECT_TRUE(counters.Increment(0));
  EXPECT_FALSE(counters.Increment(0));  // reaches 3 = saturated
  EXPECT_EQ(counters.Get(0), 3u);
  EXPECT_FALSE(counters.Increment(0));  // still stuck
  EXPECT_EQ(counters.Get(0), 3u);
  counters.Decrement(0);  // stuck counters are never decremented
  EXPECT_EQ(counters.Get(0), 3u);
  EXPECT_GE(counters.saturation_events(), 2u);
}

TEST(PackedCounterArrayDeathTest, UnderflowIsACallerBug) {
  PackedCounterArray counters(4, 4);
  EXPECT_DEATH(counters.Decrement(0), "underflow");
}

TEST(PackedCounterArrayTest, ClearResets) {
  PackedCounterArray counters(16, 5);
  counters.Set(7, 31);
  counters.Clear();
  EXPECT_EQ(counters.Get(7), 0u);
  EXPECT_EQ(counters.saturation_events(), 0u);
}

// Counters whose bit ranges straddle 64-bit word boundaries must still
// read/write exactly.
TEST(PackedCounterArrayTest, WordStraddlingCounters) {
  // 6-bit counters: counter 10 occupies bits [60, 66) — straddles words.
  PackedCounterArray counters(24, 6);
  counters.Set(10, 0x2a);
  EXPECT_EQ(counters.Get(10), 0x2au);
  EXPECT_EQ(counters.Get(9), 0u);
  EXPECT_EQ(counters.Get(11), 0u);
  counters.Set(9, 63);
  counters.Set(11, 63);
  EXPECT_EQ(counters.Get(10), 0x2au);
}

class PackedCounterWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PackedCounterWidthTest, RandomRoundTripAgainstShadow) {
  const uint32_t bits = GetParam();
  const size_t n = 257;  // odd size exercises the final partial word
  PackedCounterArray counters(n, bits);
  std::vector<uint64_t> shadow(n, 0);
  Rng rng(bits * 7919);
  for (int step = 0; step < 5000; ++step) {
    size_t i = rng.NextBelow(n);
    uint64_t v = rng.NextBelow(counters.max_value() + 1);
    counters.Set(i, v);
    shadow[i] = v;
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(counters.Get(i), shadow[i]) << "counter " << i;
  }
}

TEST_P(PackedCounterWidthTest, IncrementMatchesShadow) {
  const uint32_t bits = GetParam();
  const size_t n = 100;
  PackedCounterArray counters(n, bits);
  std::vector<uint64_t> shadow(n, 0);
  Rng rng(bits * 104729);
  for (int step = 0; step < 3000; ++step) {
    size_t i = rng.NextBelow(n);
    counters.Increment(i);
    if (shadow[i] < counters.max_value()) ++shadow[i];
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(counters.Get(i), shadow[i]) << "counter " << i;
  }
}

TEST_P(PackedCounterWidthTest, RunsMatchPerCounterGetAndSet) {
  const uint32_t bits = GetParam();
  const size_t n = 257;
  const uint32_t max_run = 64 / bits;
  PackedCounterArray counters(n, bits);
  std::vector<uint64_t> shadow(n, 0);
  Rng rng(bits * 15485863);
  for (int step = 0; step < 3000; ++step) {
    // Every start offset within a word; the last runs end on the final
    // counter, whose load reads the straddle word.
    const auto count = static_cast<uint32_t>(1 + rng.NextBelow(max_run));
    const size_t first =
        step % 8 == 0 ? n - count : rng.NextBelow(n - count + 1);
    uint64_t expected = 0;
    for (uint32_t j = 0; j < count; ++j) {
      expected |= shadow[first + j] << (j * bits);
    }
    ASSERT_EQ(counters.GetRun(first, count), expected)
        << "first " << first << " count " << count;
    uint64_t run = 0;
    for (uint32_t j = 0; j < count; ++j) {
      shadow[first + j] = rng.NextBelow(counters.max_value() + 1);
      run |= shadow[first + j] << (j * bits);
    }
    counters.SetRun(first, count, run);
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(counters.Get(i), shadow[i]) << "counter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedCounterWidthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17,
                                           24, 31, 32));

// The per-slot loop AnyEqual replaces.
bool AnyEqualBySlot(const PackedCounterArray& counters, size_t first,
                    size_t count, uint64_t value) {
  for (size_t i = first; i < first + count; ++i) {
    if (counters.Get(i) == value) return true;
  }
  return false;
}

// Every width the class accepts, against the per-slot reference and on a
// View() over the same words. Counts run past three ⌊64/z⌋-counter chunks,
// starts cover every bit offset within a word, and the last ranges end on
// the final counter (whose chunk reads the straddle word).
TEST(PackedCounterArrayTest, AnyEqualMatchesPerSlotLoopAtEveryWidth) {
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    SCOPED_TRACE("bits_per_counter " + std::to_string(bits));
    const size_t n = 389;
    const size_t lanes = 64 / bits;
    PackedCounterArray counters(n, bits);
    Rng rng(bits * 6007);
    for (size_t i = 0; i < n; ++i) {
      // A quarter zeros (the cuckoo empty slot), the rest anything, so
      // ranges mix hits, misses and lanes that differ from `value` by one
      // bit (the borrow-sensitive case).
      if (rng.NextBelow(4) != 0) {
        counters.Set(i, rng.NextBelow(counters.max_value() + 1));
      }
    }
    const PackedCounterArray view = PackedCounterArray::View(
        counters.words(), n, bits, counters.saturation_events());
    size_t hits = 0;
    size_t misses = 0;
    for (int trial = 0; trial < 3000; ++trial) {
      const size_t count = 1 + rng.NextBelow(std::min(n, 3 * lanes + 2));
      const size_t first = trial % 8 == 0 ? n - count
                                           : rng.NextBelow(n - count + 1);
      uint64_t value;
      switch (trial % 4) {
        case 0:  // present in the range
          value = counters.Get(first + rng.NextBelow(count));
          break;
        case 1:  // a present counter with one bit flipped
          value = counters.Get(first + rng.NextBelow(count)) ^
                  (1ull << rng.NextBelow(bits));
          break;
        case 2:
          value = 0;
          break;
        default:
          value = rng.NextBelow(counters.max_value() + 1);
      }
      const bool expected = AnyEqualBySlot(counters, first, count, value);
      ASSERT_EQ(counters.AnyEqual(first, count, value), expected)
          << "first " << first << " count " << count << " value " << value;
      ASSERT_EQ(view.AnyEqual(first, count, value), expected)
          << "view, first " << first << " count " << count;
      (expected ? hits : misses) += 1;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
  }
}

// The lane constants travel with the array: copies and moves of owning
// arrays and views answer like the source.
TEST(PackedCounterArrayTest, AnyEqualSurvivesCopyAndMove) {
  PackedCounterArray counters(40, 12);
  counters.Set(37, 0xabc);
  PackedCounterArray copy = counters;
  PackedCounterArray moved = std::move(copy);
  const PackedCounterArray view =
      PackedCounterArray::View(counters.words(), 40, 12, 0);
  PackedCounterArray view_copy = view;
  PackedCounterArray assigned(1, 1);
  assigned = view;
  const PackedCounterArray* arrays[] = {&counters, &moved, &view, &view_copy,
                                        &assigned};
  for (const PackedCounterArray* array : arrays) {
    EXPECT_TRUE(array->AnyEqual(36, 4, 0xabc));
    EXPECT_FALSE(array->AnyEqual(36, 4, 0xabd));
    EXPECT_FALSE(array->AnyEqual(0, 37, 0xabc));
  }
}

}  // namespace
}  // namespace shbf
