#include "shbf/shbf_membership.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/membership_theory.h"
#include "baselines/bloom_filter.h"
#include "trace/workload.h"

namespace shbf {
namespace {

ShbfM::Params BaseParams() {
  return {.num_bits = 22008, .num_hashes = 8};
}

TEST(ShbfMTest, ParamsValidation) {
  auto p = BaseParams();
  EXPECT_TRUE(p.Validate().ok());
  p.num_hashes = 7;  // odd k has no pairing
  EXPECT_FALSE(p.Validate().ok());
  p = BaseParams();
  p.num_hashes = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = BaseParams();
  p.max_offset_span = 1;  // offsets would all be zero
  EXPECT_FALSE(p.Validate().ok());
  p = BaseParams();
  p.max_offset_span = 58;  // breaks the one-access window guarantee
  EXPECT_FALSE(p.Validate().ok());
  p = BaseParams();
  p.num_bits = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ShbfMTest, GeometryAccessors) {
  ShbfM filter(BaseParams());
  EXPECT_EQ(filter.num_bits(), 22008u);
  EXPECT_EQ(filter.num_hashes(), 8u);
  EXPECT_EQ(filter.num_pairs(), 4u);
  EXPECT_EQ(filter.max_offset_span(), 57u);
}

TEST(ShbfMTest, OffsetIsNeverZeroAndWithinSpan) {
  // §3.1: o(e) = h%(w̄−1)+1 must lie in [1, w̄−1]; o = 0 would collapse the
  // pair into a single bit.
  ShbfM filter(BaseParams());
  auto w = MakeMembershipWorkload(5000, 0, 7);
  for (const auto& key : w.members) {
    uint64_t offset = filter.OffsetOf(key);
    ASSERT_GE(offset, 1u);
    ASSERT_LE(offset, 56u);
  }
}

TEST(ShbfMTest, OffsetsAreSpreadAcrossTheSpan) {
  ShbfM filter(BaseParams());
  auto w = MakeMembershipWorkload(20000, 0, 9);
  std::vector<size_t> histogram(57, 0);
  for (const auto& key : w.members) ++histogram[filter.OffsetOf(key)];
  EXPECT_EQ(histogram[0], 0u);
  for (int o = 1; o <= 56; ++o) {
    // 20000/56 ≈ 357 expected; 5σ ≈ 94.
    EXPECT_NEAR(histogram[o], 357, 120) << "offset " << o;
  }
}

TEST(ShbfMTest, NoFalseNegatives) {
  auto w = MakeMembershipWorkload(1500, 0, 42);
  ShbfM filter(BaseParams());
  for (const auto& key : w.members) filter.Add(key);
  for (const auto& key : w.members) ASSERT_TRUE(filter.Contains(key));
}

TEST(ShbfMTest, EmptyFilterRejectsEverything) {
  ShbfM filter(BaseParams());
  auto w = MakeMembershipWorkload(0, 1000, 43);
  for (const auto& key : w.non_members) EXPECT_FALSE(filter.Contains(key));
}

TEST(ShbfMTest, SetsExactlyKBitsPerElementModuloCollisions) {
  ShbfM filter(BaseParams());
  filter.Add("one-element");
  // k/2 bases + k/2 shifted bits; collisions can only reduce the count.
  EXPECT_LE(filter.bits().CountOnes(), 8u);
  EXPECT_GE(filter.bits().CountOnes(), 4u);
}

TEST(ShbfMTest, ClearEmptiesFilter) {
  ShbfM filter(BaseParams());
  filter.Add("x");
  filter.Clear();
  EXPECT_FALSE(filter.Contains("x"));
  EXPECT_EQ(filter.num_elements(), 0u);
}

TEST(ShbfMTest, HalfTheAccessesAndHalfTheHashesOfBloom) {
  // The paper's headline cost claim (§3.2): k/2 memory accesses and
  // k/2 + 1 hash computations per query vs k and k for BF.
  const uint32_t k = 8;
  auto w = MakeMembershipWorkload(1000, 1000, 45);
  ShbfM shbf({.num_bits = 22008, .num_hashes = k});
  BloomFilter bloom({.num_bits = 22008, .num_hashes = k});
  for (const auto& key : w.members) {
    shbf.Add(key);
    bloom.Add(key);
  }
  QueryStats shbf_members;
  QueryStats bloom_members;
  for (const auto& key : w.members) {
    shbf.ContainsWithStats(key, &shbf_members);
    bloom.ContainsWithStats(key, &bloom_members);
  }
  EXPECT_DOUBLE_EQ(shbf_members.AvgMemoryAccesses(), k / 2.0);
  EXPECT_DOUBLE_EQ(bloom_members.AvgMemoryAccesses(), k);
  EXPECT_DOUBLE_EQ(shbf_members.AvgHashComputations(), k / 2.0 + 1);
  EXPECT_DOUBLE_EQ(bloom_members.AvgHashComputations(), k);
}

TEST(ShbfMTest, EarlyExitOnNonMembers) {
  auto w = MakeMembershipWorkload(1000, 2000, 47);
  ShbfM filter(BaseParams());
  for (const auto& key : w.members) filter.Add(key);
  QueryStats stats;
  for (const auto& key : w.non_members) filter.ContainsWithStats(key, &stats);
  EXPECT_LT(stats.AvgMemoryAccesses(), 2.0);  // most rejects on pair 1
}

struct FprCase {
  size_t num_bits;
  size_t num_elements;
  uint32_t num_hashes;
};

class ShbfMFprTest : public ::testing::TestWithParam<FprCase> {};

TEST_P(ShbfMFprTest, EmpiricalFprTracksEq1) {
  const auto& c = GetParam();
  auto w = MakeMembershipWorkload(c.num_elements, 300000, 7000 + c.num_hashes);
  ShbfM filter({.num_bits = c.num_bits, .num_hashes = c.num_hashes});
  for (const auto& key : w.members) filter.Add(key);
  size_t fp = 0;
  for (const auto& key : w.non_members) fp += filter.Contains(key);
  double simulated = static_cast<double>(fp) / w.non_members.size();
  double predicted =
      theory::ShbfMFpr(c.num_bits, c.num_elements, c.num_hashes, 57);
  // §6.2.1 reports < 3% relative error at these sizes; allow sampling slack.
  EXPECT_NEAR(simulated, predicted, std::max(0.12 * predicted, 8e-4))
      << "sim=" << simulated << " theory=" << predicted;
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, ShbfMFprTest,
    ::testing::Values(FprCase{22008, 1000, 8},   // Fig 7(a) left edge
                      FprCase{22008, 1400, 8},   // Fig 7(a) right region
                      FprCase{22976, 2000, 6},   // Fig 7(b)
                      FprCase{22976, 2000, 10},  // Fig 7(b)
                      FprCase{32000, 4000, 6},   // Fig 7(c)
                      FprCase{44000, 4000, 6},   // Fig 7(c)
                      FprCase{100000, 10000, 8}));

TEST(ShbfMTest, FprComparableToBloomAtSameParameters) {
  // Fig 4 / §3.5: the FPR sacrifice vs BF is negligible.
  const size_t m = 40000;
  const size_t n = 4000;
  const uint32_t k = 6;
  auto w = MakeMembershipWorkload(n, 300000, 51);
  ShbfM shbf({.num_bits = m, .num_hashes = k});
  BloomFilter bloom({.num_bits = m, .num_hashes = k});
  for (const auto& key : w.members) {
    shbf.Add(key);
    bloom.Add(key);
  }
  size_t fp_shbf = 0;
  size_t fp_bloom = 0;
  for (const auto& key : w.non_members) {
    fp_shbf += shbf.Contains(key);
    fp_bloom += bloom.Contains(key);
  }
  double fpr_shbf = static_cast<double>(fp_shbf) / w.non_members.size();
  double fpr_bloom = static_cast<double>(fp_bloom) / w.non_members.size();
  EXPECT_LT(fpr_shbf, fpr_bloom * 1.25 + 5e-4);
}

class ShbfMSpanTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShbfMSpanTest, NoFalseNegativesForEverySpan) {
  ShbfM filter(
      {.num_bits = 20000, .num_hashes = 6, .max_offset_span = GetParam()});
  auto w = MakeMembershipWorkload(1000, 0, GetParam());
  for (const auto& key : w.members) filter.Add(key);
  for (const auto& key : w.members) ASSERT_TRUE(filter.Contains(key));
}

INSTANTIATE_TEST_SUITE_P(Spans, ShbfMSpanTest,
                         ::testing::Values(2, 3, 8, 16, 21, 25, 33, 48, 57));

TEST(ShbfMTest, DifferentSeedsProduceDifferentFilters) {
  ShbfM a({.num_bits = 10000, .num_hashes = 8, .seed = 1});
  ShbfM b({.num_bits = 10000, .num_hashes = 8, .seed = 2});
  // Load the filters enough (~0.8% FPR) that each sees dozens of FPs.
  auto w = MakeMembershipWorkload(1000, 20000, 55);
  for (const auto& key : w.members) {
    a.Add(key);
    b.Add(key);
  }
  size_t disagreements = 0;
  for (const auto& key : w.non_members) {
    disagreements += (a.Contains(key) != b.Contains(key));
  }
  // FPs land on different keys under different hash families.
  EXPECT_GT(disagreements, 0u);
}

TEST(ShbfMTest, WorksWithEveryHashAlgorithm) {
  for (HashAlgorithm alg :
       {HashAlgorithm::kMurmur3, HashAlgorithm::kBobLookup3,
        HashAlgorithm::kBobLookup2, HashAlgorithm::kFnv1a}) {
    ShbfM filter(
        {.num_bits = 20000, .num_hashes = 8, .hash_algorithm = alg});
    auto w = MakeMembershipWorkload(800, 0, 57);
    for (const auto& key : w.members) filter.Add(key);
    for (const auto& key : w.members) {
      ASSERT_TRUE(filter.Contains(key)) << HashAlgorithmName(alg);
    }
  }
}

}  // namespace
}  // namespace shbf
