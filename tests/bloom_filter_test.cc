#include "baselines/bloom_filter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/membership_theory.h"
#include "trace/workload.h"

namespace shbf {
namespace {

TEST(BloomFilterTest, ParamsValidation) {
  BloomFilter::Params no_bits{.num_bits = 0, .num_hashes = 4};
  EXPECT_FALSE(no_bits.Validate().ok());
  BloomFilter::Params no_hashes{.num_bits = 100, .num_hashes = 0};
  EXPECT_FALSE(no_hashes.Validate().ok());
  BloomFilter::Params good{.num_bits = 100, .num_hashes = 4};
  EXPECT_TRUE(good.Validate().ok());
}

TEST(BloomFilterTest, OptimalSizing) {
  // m = −n ln f / (ln 2)²; for n = 1000, f = 0.01 → 9586 bits.
  EXPECT_EQ(BloomFilter::OptimalNumBits(1000, 0.01), 9586u);
  // k = (m/n) ln 2; 9586/1000·0.693 ≈ 6.6 → 7.
  EXPECT_EQ(BloomFilter::OptimalNumHashes(9586, 1000), 7u);
  EXPECT_GE(BloomFilter::OptimalNumHashes(10, 1000), 1u);  // never zero
}

TEST(BloomFilterTest, NoFalseNegatives) {
  auto w = MakeMembershipWorkload(2000, 0, 42);
  BloomFilter bf({.num_bits = 20000, .num_hashes = 7});
  for (const auto& key : w.members) bf.Add(key);
  for (const auto& key : w.members) {
    ASSERT_TRUE(bf.Contains(key));
  }
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter bf({.num_bits = 1000, .num_hashes = 4});
  auto w = MakeMembershipWorkload(0, 100, 7);
  for (const auto& key : w.non_members) EXPECT_FALSE(bf.Contains(key));
}

TEST(BloomFilterTest, ClearEmptiesFilter) {
  BloomFilter bf({.num_bits = 1000, .num_hashes = 4});
  bf.Add("element");
  ASSERT_TRUE(bf.Contains("element"));
  bf.Clear();
  EXPECT_FALSE(bf.Contains("element"));
  EXPECT_EQ(bf.num_elements(), 0u);
}

TEST(BloomFilterTest, RawBytesAndStringViewAgree) {
  BloomFilter bf({.num_bits = 1000, .num_hashes = 4});
  const char bytes[] = {1, 2, 3, 4};
  bf.Add(bytes, sizeof(bytes));
  EXPECT_TRUE(bf.Contains(std::string_view(bytes, sizeof(bytes))));
}

TEST(BloomFilterTest, StatsCountKAccessesForMembers) {
  auto w = MakeMembershipWorkload(100, 0, 3);
  BloomFilter bf({.num_bits = 10000, .num_hashes = 8});
  for (const auto& key : w.members) bf.Add(key);
  QueryStats stats;
  for (const auto& key : w.members) bf.ContainsWithStats(key, &stats);
  // Members always probe all k bits.
  EXPECT_DOUBLE_EQ(stats.AvgMemoryAccesses(), 8.0);
  EXPECT_DOUBLE_EQ(stats.AvgHashComputations(), 8.0);
  EXPECT_EQ(stats.queries, 100u);
}

TEST(BloomFilterTest, StatsShowEarlyExitForNonMembers) {
  auto w = MakeMembershipWorkload(1000, 1000, 5);
  // Half-full filter: non-members should bail after ~2 probes on average.
  BloomFilter bf(
      {.num_bits = 1000 * 10,
       .num_hashes = BloomFilter::OptimalNumHashes(1000 * 10, 1000)});
  for (const auto& key : w.members) bf.Add(key);
  QueryStats stats;
  for (const auto& key : w.non_members) bf.ContainsWithStats(key, &stats);
  EXPECT_LT(stats.AvgMemoryAccesses(), 3.0);
  EXPECT_GT(stats.AvgMemoryAccesses(), 1.0);
}

struct FprCase {
  size_t num_bits;
  size_t num_elements;
  uint32_t num_hashes;
};

class BloomFprTest : public ::testing::TestWithParam<FprCase> {};

TEST_P(BloomFprTest, EmpiricalFprTracksEq8) {
  const auto& c = GetParam();
  auto w = MakeMembershipWorkload(c.num_elements, 200000, 99 + c.num_hashes);
  BloomFilter bf({.num_bits = c.num_bits, .num_hashes = c.num_hashes});
  for (const auto& key : w.members) bf.Add(key);
  size_t false_positives = 0;
  for (const auto& key : w.non_members) false_positives += bf.Contains(key);
  double simulated = static_cast<double>(false_positives) / w.non_members.size();
  double predicted =
      theory::BloomFpr(c.num_bits, c.num_elements, c.num_hashes);
  // The paper reports ~3% relative error between Bloom theory and
  // simulation; allow wider slack for the smaller predicted rates.
  EXPECT_NEAR(simulated, predicted, std::max(0.10 * predicted, 8e-4))
      << "sim=" << simulated << " theory=" << predicted;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BloomFprTest,
    ::testing::Values(FprCase{10000, 1000, 4}, FprCase{10000, 1000, 7},
                      FprCase{22008, 1400, 8}, FprCase{32000, 4000, 6},
                      FprCase{100000, 10000, 7}, FprCase{20000, 4000, 3}));

}  // namespace
}  // namespace shbf
