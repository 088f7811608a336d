#include "baselines/cuckoo_filter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "api/filter_registry.h"
#include "core/packed_counter_array.h"
#include "engine/batch_query_engine.h"
#include "trace/workload.h"

namespace shbf {
namespace {

CuckooFilter::Params BaseParams(size_t buckets = 4096) {
  return {.num_buckets = buckets, .fingerprint_bits = 12};
}

TEST(CuckooFilterTest, ParamsValidation) {
  auto p = BaseParams();
  EXPECT_TRUE(p.Validate().ok());
  p.bucket_size = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = BaseParams();
  p.fingerprint_bits = 2;
  EXPECT_FALSE(p.Validate().ok());
  p = BaseParams();
  p.num_buckets = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(CuckooFilterTest, RoundsBucketsToPowerOfTwo) {
  CuckooFilter cf(BaseParams(1000));
  EXPECT_EQ(cf.num_buckets(), 1024u);
}

TEST(CuckooFilterTest, InsertContainsDelete) {
  CuckooFilter cf(BaseParams());
  EXPECT_TRUE(cf.Insert("alpha"));
  EXPECT_TRUE(cf.Contains("alpha"));
  EXPECT_FALSE(cf.Contains("beta"));
  EXPECT_TRUE(cf.Delete("alpha"));
  EXPECT_FALSE(cf.Contains("alpha"));
  EXPECT_FALSE(cf.Delete("alpha"));  // already gone
}

TEST(CuckooFilterTest, NoFalseNegativesAtModerateLoad) {
  auto w = MakeMembershipWorkload(12000, 0, 83);  // ~73% load at 4096×4
  CuckooFilter cf(BaseParams());
  for (const auto& key : w.members) ASSERT_TRUE(cf.Insert(key)) << "unexpected full";
  for (const auto& key : w.members) ASSERT_TRUE(cf.Contains(key));
}

TEST(CuckooFilterTest, LowFalsePositiveRateWith12BitFingerprints) {
  auto w = MakeMembershipWorkload(12000, 100000, 89);
  CuckooFilter cf(BaseParams());
  for (const auto& key : w.members) cf.Insert(key);
  size_t fp = 0;
  for (const auto& key : w.non_members) fp += cf.Contains(key);
  // ε ≈ 2b/2^f = 8/4096 ≈ 0.002 at this load.
  EXPECT_LT(static_cast<double>(fp) / w.non_members.size(), 0.01);
}

TEST(CuckooFilterTest, FillToFailureThenVictimStaysVisible) {
  // The paper (§2.1) flags the "non-negligible probability of failing when
  // inserting"; drive a tiny filter to that failure.
  CuckooFilter cf({.num_buckets = 16, .bucket_size = 4, .fingerprint_bits = 8});
  auto w = MakeMembershipWorkload(200, 0, 97);
  std::vector<std::string> inserted;
  bool failed = false;
  for (const auto& key : w.members) {
    if (cf.Insert(key)) {
      inserted.push_back(key);
    } else {
      failed = true;
      break;
    }
  }
  ASSERT_TRUE(failed) << "a 64-slot filter must reject 200 inserts";
  EXPECT_TRUE(cf.HasVictim());
  // Every successfully inserted key must still be visible (stash included).
  for (const auto& key : inserted) {
    EXPECT_TRUE(cf.Contains(key)) << "false negative after failed insert";
  }
  // Once full, further inserts keep failing...
  EXPECT_FALSE(cf.Insert("one-more"));
  // ...until deletes make room again. The victim stash empties only when a
  // freed slot lands in one of its two buckets, so drain a few keys.
  bool inserted_again = false;
  for (size_t i = 0; i < inserted.size() && !inserted_again; ++i) {
    ASSERT_TRUE(cf.Delete(inserted[i]));
    inserted_again = cf.Insert("one-more");
  }
  EXPECT_TRUE(inserted_again);
}

TEST(CuckooFilterTest, ResolvedProbeMatchesContainsIncludingTheStash) {
  CuckooFilter cf({.num_buckets = 16, .bucket_size = 4, .fingerprint_bits = 8});
  auto w = MakeMembershipWorkload(200, 2000, 97);
  // Fill to the first failure: the last displaced fingerprint, which
  // belongs to one of `inserted` (the failing key included), now lives
  // only in the victim stash.
  std::vector<std::string> inserted;
  for (const auto& key : w.members) {
    inserted.push_back(key);
    if (!cf.Insert(key)) break;
  }
  ASSERT_TRUE(cf.HasVictim());

  auto resolved = [&](const std::string& key) {
    CuckooFilter::Probe probe;
    cf.PrepareProbe(key, &probe);
    return cf.ResolveProbe(probe);
  };
  for (const auto& key : inserted) {
    EXPECT_TRUE(resolved(key)) << "false negative for " << key;
    EXPECT_EQ(resolved(key), cf.Contains(key)) << key;
  }
  for (const auto& key : w.non_members) {
    EXPECT_EQ(resolved(key), cf.Contains(key)) << key;
  }
}

TEST(CuckooFilterTest, HighLoadFactorAchievable) {
  // (2,4)-cuckoo with 500 kicks sustains ~95% occupancy.
  CuckooFilter cf(BaseParams(1024));
  auto w = MakeMembershipWorkload(4096, 0, 101);
  size_t inserted = 0;
  for (const auto& key : w.members) {
    if (!cf.Insert(key)) break;
    ++inserted;
  }
  EXPECT_GT(cf.LoadFactor(), 0.90) << "inserted " << inserted;
}

TEST(CuckooFilterTest, DeleteOnlyRemovesOneCopy) {
  CuckooFilter cf(BaseParams());
  cf.Insert("dup");
  cf.Insert("dup");
  EXPECT_TRUE(cf.Delete("dup"));
  EXPECT_TRUE(cf.Contains("dup"));
  EXPECT_TRUE(cf.Delete("dup"));
  EXPECT_FALSE(cf.Contains("dup"));
}

TEST(CuckooFilterTest, StatsAtMostTwoBucketAccesses) {
  CuckooFilter cf(BaseParams());
  cf.Insert("member");
  QueryStats stats;
  cf.ContainsWithStats("member", &stats);
  cf.ContainsWithStats("missing", &stats);
  EXPECT_LE(stats.memory_accesses, 4u);
  EXPECT_GE(stats.memory_accesses, 3u);  // hit may stop at 1; miss reads 2
}

TEST(CuckooFilterTest, NumItemsTracksInsertsAndDeletes) {
  CuckooFilter cf(BaseParams());
  cf.Insert("a");
  cf.Insert("b");
  EXPECT_EQ(cf.num_items(), 2u);
  cf.Delete("a");
  EXPECT_EQ(cf.num_items(), 1u);
}

TEST(CuckooFilterTest, SerdeRoundTripPreservesAnswers) {
  CuckooFilter cf({.num_buckets = 256, .fingerprint_bits = 12});
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cf.Insert("key-" + std::to_string(i)));
  }
  std::optional<CuckooFilter> restored;
  ASSERT_TRUE(CuckooFilter::FromBytes(cf.ToBytes(), &restored).ok());
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(restored->Contains("key-" + std::to_string(i)));
  }
  for (int i = 0; i < 2000; ++i) {
    std::string probe = "absent-" + std::to_string(i);
    EXPECT_EQ(cf.Contains(probe), restored->Contains(probe));
  }
  EXPECT_EQ(restored->num_items(), cf.num_items());
}

TEST(CuckooFilterTest, FromBytesRejectsOutOfRangeVictim) {
  CuckooFilter cf({.num_buckets = 256, .fingerprint_bits = 12});
  cf.Insert("payload");
  std::string blob = cf.ToBytes();
  // Blob layout: 6-byte header, num_buckets u64, bucket_size u32,
  // fingerprint_bits u32, max_kicks u32, alg u8, seed u64, num_items u64
  // → victim_used at offset 43, victim_index at 44..51.
  ASSERT_GT(blob.size(), 60u);
  blob[43] = 1;                                      // victim_used = true
  for (int i = 44; i < 52; ++i) blob[i] = '\xff';    // index = 2^64 − 1
  blob[52] = 1;                                      // fingerprint = 1
  std::optional<CuckooFilter> restored;
  EXPECT_FALSE(CuckooFilter::FromBytes(blob, &restored).ok())
      << "accepted a victim index far past the bucket array";
}

// A filter in lane `lane` of an N-lane table answers and serializes exactly
// like a standalone twin fed the same operations: inserts until the stash
// fills (kicks included), deletes that free the stash, and Clear. Every
// other lane holds its own filter, whose bytes must never change. Besides
// the default bucket, one whose slots are copied in a run of 5 and a run
// of 3 (b = 8, f = 12), and one whose slots straddle words (f = 17).
TEST(CuckooFilterTest, LaneFilterMatchesAStandaloneTwin) {
  auto key = [](size_t k) { return "lane-key-" + std::to_string(k); };
  for (const auto& [bucket_size, fingerprint_bits] :
       {std::pair{4u, 12u}, std::pair{8u, 12u}, std::pair{4u, 17u}}) {
    const CuckooFilter::Params params{.num_buckets = 16,
                                      .bucket_size = bucket_size,
                                      .fingerprint_bits = fingerprint_bits};
    for (uint32_t lanes : {2u, 3u, 65u}) {
      for (uint32_t lane : {0u, lanes - 1}) {
        SCOPED_TRACE("b " + std::to_string(bucket_size) + ", f " +
                     std::to_string(fingerprint_bits) + ": lane " +
                     std::to_string(lane) + " of " + std::to_string(lanes));
        auto table = std::make_shared<PackedCounterArray>(
            params.num_buckets * lanes * params.bucket_size,
            params.fingerprint_bits);
        std::vector<CuckooFilter> neighbours;
        std::vector<std::string> neighbour_bytes;
        for (uint32_t other = 0; other < lanes; ++other) {
          if (other == lane) continue;
          CuckooFilter::Params seeded = params;
          seeded.seed = 100 + other;
          neighbours.emplace_back(seeded);
          for (size_t k = 0; k < 40; ++k) neighbours.back().Insert(key(k));
          neighbours.back().MoveToLane(table, lanes, other);
          neighbour_bytes.push_back(neighbours.back().ToBytes());
        }
        CuckooFilter twin(params);
        CuckooFilter laned(params);
        for (size_t k = 0; k < 10; ++k) {
          ASSERT_TRUE(twin.Insert(key(k)));
          ASSERT_TRUE(laned.Insert(key(k)));
        }
        laned.MoveToLane(table, lanes, lane);
        ASSERT_EQ(laned.lanes(), lanes);
        auto expect_twins = [&](const char* step) {
          SCOPED_TRACE(step);
          ASSERT_EQ(laned.ToBytes(), twin.ToBytes());
          ASSERT_EQ(laned.num_items(), twin.num_items());
          for (size_t k = 0; k < 400; ++k) {
            ASSERT_EQ(laned.Contains(key(k)), twin.Contains(key(k))) << k;
          }
          for (size_t n = 0; n < neighbours.size(); ++n) {
            ASSERT_EQ(neighbours[n].ToBytes(), neighbour_bytes[n])
                << "neighbour " << n << " changed";
          }
        };
        expect_twins("moved into the lane");

        size_t inserted = 10;
        for (; inserted < 400; ++inserted) {
          const bool stored = twin.Insert(key(inserted));
          ASSERT_EQ(laned.Insert(key(inserted)), stored);
          if (!stored) break;
        }
        ASSERT_TRUE(laned.HasVictim()) << "400 inserts never filled the lane";
        expect_twins("filled to failure");

        for (size_t k = 0; k <= inserted && laned.HasVictim(); ++k) {
          ASSERT_EQ(laned.Delete(key(k)), twin.Delete(key(k)));
        }
        ASSERT_FALSE(laned.HasVictim());
        expect_twins("stash freed by deletes");

        laned.Clear();
        twin.Clear();
        expect_twins("cleared");
      }
    }
  }
}

TEST(CuckooFilterTest, AdapterMemoryCountsTheOverfullSideTable) {
  // A tiny cuckoo set, filled until its stash is occupied: every later add
  // goes to the exact side table, whose keys and counts are memory too.
  const FilterSpec tiny = FilterSpec::ForKeys(16, 64.0, 4);
  std::unique_ptr<MembershipFilter> cuckoo;
  ASSERT_TRUE(FilterRegistry::Global().Create("cuckoo", tiny, &cuckoo).ok());
  const size_t table_bytes = cuckoo->memory_bytes();
  auto key = [](size_t k) {
    return "a-rather-long-overfull-key-" + std::to_string(k);
  };
  size_t k = 0;
  while (!std::holds_alternative<std::monostate>(cuckoo->batch_fast_path())) {
    ASSERT_LT(k, 200u) << "200 adds never overflowed a tiny cuckoo";
    cuckoo->Add(key(k++));
  }
  size_t overfull_bytes = key(k - 1).size();
  for (size_t extra = 0; extra < 50; ++extra, ++k) {
    cuckoo->Add(key(k));
    overfull_bytes += key(k).size();
  }
  EXPECT_GE(cuckoo->memory_bytes(), table_bytes + overfull_bytes)
      << "the side table's keys are not counted";
  for (size_t j = k - 51; j < k; ++j) ASSERT_TRUE(cuckoo->Remove(key(j)).ok());
  EXPECT_EQ(cuckoo->memory_bytes(), table_bytes);
}

// Every legal-ish corner of the bucket geometry: one to eight slots, and
// fingerprints that pack evenly into words (4, 8, 16, 32 bits), leave slack
// in a word (12) or straddle word boundaries (17). Each filter is filled to
// its first insertion failure, so its victim stash is occupied.
class CuckooGeometryTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(CuckooGeometryTest, FilledToFailureAnswersMembersAndBoundsFpr) {
  const auto [bucket_size, fingerprint_bits] = GetParam();
  constexpr size_t kBuckets = 256;
  FilterSpec spec;
  spec.num_cells = kBuckets * bucket_size * fingerprint_bits;
  spec.bucket_size = bucket_size;
  spec.fingerprint_bits = fingerprint_bits;
  std::unique_ptr<MembershipFilter> served;
  ASSERT_TRUE(FilterRegistry::Global().Create("cuckoo", spec, &served).ok());
  // The same filter natively, fed in lockstep (inserts are deterministic
  // given the seed), so the test can see where the stash filled.
  CuckooFilter cf({.num_buckets = kBuckets,
                   .bucket_size = bucket_size,
                   .fingerprint_bits = fingerprint_bits,
                   .hash_algorithm = spec.hash_algorithm,
                   .seed = spec.seed});
  const size_t slots = kBuckets * bucket_size;
  auto w = MakeMembershipWorkload(4 * slots, 20000, 131);
  std::vector<std::string> inserted;
  for (const auto& key : w.members) {
    // The failing key counts as inserted: its fingerprint, or the one it
    // displaced, now lives in the stash.
    inserted.push_back(key);
    served->Add(key);
    if (!cf.Insert(key)) break;
  }
  ASSERT_TRUE(cf.HasVictim()) << "never filled " << slots << " slots";
  ASSERT_TRUE(
      std::holds_alternative<const CuckooFilter*>(served->batch_fast_path()))
      << "the engine would bypass the probe protocol";

  BatchQueryEngine engine;
  std::vector<uint8_t> batched;
  engine.ContainsBatch(*served, inserted, &batched);
  for (size_t i = 0; i < inserted.size(); ++i) {
    ASSERT_TRUE(cf.Contains(inserted[i])) << "false negative " << i;
    ASSERT_EQ(batched[i], 1) << "engine false negative " << i;
  }

  engine.ContainsBatch(*served, w.non_members, &batched);
  size_t false_positives = 0;
  for (size_t i = 0; i < w.non_members.size(); ++i) {
    const bool hit = cf.Contains(w.non_members[i]);
    ASSERT_EQ(batched[i], hit ? 1 : 0) << w.non_members[i];
    false_positives += hit;
  }
  // Fan et al.: ε ≤ 2b/2^f at full load. Allow 2x that, plus a floor of
  // 40 hits in 20000 queries for the widths where ε rounds to zero.
  const double fpr =
      static_cast<double>(false_positives) / w.non_members.size();
  const double bound =
      2.0 * 2.0 * bucket_size / static_cast<double>(1ull << fingerprint_bits);
  EXPECT_LE(fpr, bound + 0.002) << "load " << cf.LoadFactor();
}

INSTANTIATE_TEST_SUITE_P(
    BucketsByFingerprints, CuckooGeometryTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(4u, 8u, 12u, 16u, 17u, 32u)),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace shbf
