// MultiSetIndex: WhichSets must answer bit-identically to a brute-force
// Contains loop over a row-built twin of the catalog (same false positives,
// no false negatives) for mixed sliced/scanned backends, stay correct under
// incremental AddKey/RemoveSet maintenance, and leave the catalog's
// outward behaviour (Serialize bytes, names, counts) as it was while the
// slices own the sliced sets' bits: bit-sliced shbf_m and bloom sets, and
// cuckoo sets in the lanes of a bucket-interleaved table.

#include "multiset/multi_set_index.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "api/cuckoo_adapter.h"
#include "api/filter_registry.h"
#include "api/set_catalog.h"

namespace shbf {
namespace {

std::unique_ptr<MembershipFilter> MakeFilter(const std::string& name,
                                             size_t keys = 300,
                                             double bits_per_key = 64.0,
                                             uint32_t num_hashes = 4) {
  FilterSpec spec = FilterSpec::ForKeys(keys, bits_per_key, num_hashes);
  spec.max_count = 8;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create(name, spec, &filter));
  return filter;
}

/// `num_sets` sets named "set-<i>" with `keys_per_set` keys each; set i uses
/// backends[i % backends.size()]. Deterministic, so two calls build twins.
SetCatalog MakeCatalog(const std::vector<std::string>& backends,
                       size_t num_sets, size_t keys_per_set) {
  SetCatalog catalog;
  for (size_t i = 0; i < num_sets; ++i) {
    auto filter = MakeFilter(backends[i % backends.size()], keys_per_set);
    for (size_t k = 0; k < keys_per_set; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  return catalog;
}

std::vector<std::string> MakeQueries(size_t num_sets, size_t keys_per_set) {
  std::vector<std::string> queries;
  for (size_t i = 0; i < num_sets; i += 3) {
    queries.push_back("set-" + std::to_string(i) + "-key-0");
    queries.push_back("set-" + std::to_string(i) + "-key-" +
                      std::to_string(keys_per_set - 1));
  }
  for (int i = 0; i < 500; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  return queries;
}

/// The ground-truth which-sets loop: every live filter of `catalog` (a
/// row-built twin no index has touched), per key.
SetIdBitmap BruteForce(const SetCatalog& catalog, std::string_view key) {
  SetIdBitmap bitmap(catalog.id_bound());
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    if (entry->filter->Contains(key)) bitmap.Set(entry->id);
  }
  return bitmap;
}

/// Batch and single-key answers of `index` equal BruteForce(reference).
void ExpectMatchesBruteForce(const MultiSetIndex& index,
                             const SetCatalog& reference,
                             const std::vector<std::string>& queries) {
  std::vector<SetIdBitmap> batched;
  index.WhichSetsBatch(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const SetIdBitmap want = BruteForce(reference, queries[q]);
    ASSERT_EQ(batched[q], want) << "batch diverges at " << queries[q];
    SetIdBitmap single;
    index.WhichSets(queries[q], &single);
    ASSERT_EQ(single, want) << "single-key diverges at " << queries[q];
  }
}

TEST(MultiSetIndexTest, BitIdenticalToBruteForceOverMixedBackends) {
  // shbf_m, bloom and cuckoo slice (one slice per geometry); shbf_x stays
  // on the scan.
  const std::vector<std::string> backends = {"shbf_m", "shbf_m", "bloom",
                                             "cuckoo", "shbf_x"};
  SetCatalog catalog = MakeCatalog(backends, 20, 80);
  const SetCatalog reference = MakeCatalog(backends, 20, 80);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_EQ(stats.sets, 20u);
  EXPECT_EQ(stats.slices, 3u) << "one slice per shbf_m / bloom / cuckoo "
                                 "geometry";
  EXPECT_EQ(stats.cuckoo_slices, 1u);
  EXPECT_EQ(stats.sliced_sets, 16u);
  EXPECT_EQ(stats.scan_sets, 4u) << "the shbf_x sets scan";
  ExpectMatchesBruteForce(*index, reference, MakeQueries(20, 80));

  // One probe per key for each slice or scan set consulted.
  const uint64_t before = index->stats().probes;
  std::vector<SetIdBitmap> answers;
  index->WhichSetsBatch(std::vector<std::string>{"a", "b", "c"}, &answers);
  EXPECT_EQ(index->stats().probes - before, 3u * (3 + 4));
}

TEST(MultiSetIndexTest, ForceScanMatchesSliceAnswers) {
  const std::vector<std::string> backends = {"shbf_m", "shbf_m", "shbf_m",
                                             "cuckoo"};
  SetCatalog sliced = MakeCatalog(backends, 32, 60);
  SetCatalog scanned = MakeCatalog(backends, 32, 60);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&sliced, {}, &index).ok());
  MultiSetIndexOptions scan_options;
  scan_options.force_scan = true;
  std::unique_ptr<MultiSetIndex> scan;
  ASSERT_TRUE(MultiSetIndex::Build(&scanned, scan_options, &scan).ok());
  EXPECT_EQ(index->stats().slices, 2u);
  EXPECT_EQ(index->stats().cuckoo_slices, 1u);
  EXPECT_EQ(scan->stats().slices, 0u);
  EXPECT_EQ(scan->stats().scan_sets, 32u);

  const std::vector<std::string> queries = MakeQueries(32, 60);
  std::vector<SetIdBitmap> index_answers;
  std::vector<SetIdBitmap> scan_answers;
  index->WhichSetsBatch(queries, &index_answers);
  scan->WhichSetsBatch(queries, &scan_answers);
  EXPECT_EQ(index_answers, scan_answers);
  // The whole point: two slice probes per key instead of 32 filter probes.
  EXPECT_EQ(index->stats().probes, 2 * queries.size());
  EXPECT_EQ(scan->stats().probes, 32 * queries.size());

  // A later Build over the sliced catalog finds views and lane adapters,
  // which it scans.
  std::unique_ptr<MultiSetIndex> later;
  ASSERT_TRUE(MultiSetIndex::Build(&sliced, {}, &later).ok());
  EXPECT_EQ(later->stats().slices, 0u);
  EXPECT_EQ(later->stats().scan_sets, 32u);
  std::vector<SetIdBitmap> later_answers;
  later->WhichSetsBatch(queries, &later_answers);
  EXPECT_EQ(later_answers, scan_answers);
}

TEST(MultiSetIndexTest, SliceOfManySetsWithAPartialTailByte) {
  // 75 sets: two slot words, the second one partial, and a last column
  // byte holding 3 slots, so the live mask must zero the other 5 bits.
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 75, 40);
  const SetCatalog reference = MakeCatalog({"shbf_m"}, 75, 40);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().slices, 1u);
  EXPECT_EQ(index->stats().sliced_sets, 75u);
  std::vector<std::string> queries = MakeQueries(75, 40);
  for (size_t i = 64; i < 75; ++i) {
    queries.push_back("set-" + std::to_string(i) + "-key-7");
  }
  ExpectMatchesBruteForce(*index, reference, queries);
}

TEST(MultiSetIndexTest, SlicesMatchBruteForceAcrossHashCounts) {
  // Dense sets (10 bits/key; the cuckoo sets at 78 % load), so every slice
  // answers false positives that must match the rows' exactly.
  for (const char* backend : {"shbf_m", "bloom"}) {
    for (uint32_t k : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(backend) + " k=" + std::to_string(k));
      auto build = [&] {
        SetCatalog catalog;
        for (size_t i = 0; i < 12; ++i) {
          auto filter = MakeFilter(i % 6 == 5 ? "cuckoo" : backend, 200,
                                   10.0, k);
          for (size_t key = 0; key < 200; ++key) {
            filter->Add("set-" + std::to_string(i) + "-key-" +
                        std::to_string(key));
          }
          CheckOk(catalog.AddSet("set-" + std::to_string(i),
                                 std::move(filter)));
        }
        return catalog;
      };
      SetCatalog catalog = build();
      const SetCatalog reference = build();
      std::unique_ptr<MultiSetIndex> index;
      ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
      EXPECT_EQ(index->stats().slices, 2u);
      EXPECT_EQ(index->stats().cuckoo_slices, 1u) << "the two cuckoo sets";
      EXPECT_EQ(index->stats().sliced_sets, 12u);
      std::vector<std::string> queries = MakeQueries(12, 200);
      for (int i = 0; i < 3000; ++i) {
        queries.push_back("more-absent-" + std::to_string(i));
      }
      ExpectMatchesBruteForce(*index, reference, queries);
    }
  }
}

TEST(MultiSetIndexTest, SerializeIsByteIdenticalBeforeDuringAndAfterTheIndex) {
  const std::vector<std::string> backends = {"shbf_m", "bloom", "shbf_m",
                                             "cuckoo"};
  SetCatalog catalog = MakeCatalog(backends, 12, 50);
  const std::string before = catalog.Serialize();
  std::vector<std::string> names;
  std::vector<size_t> counts;
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    names.emplace_back(entry->filter->name());
    counts.push_back(entry->filter->num_elements());
  }

  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  ASSERT_EQ(index->stats().slices, 3u);
  ASSERT_EQ(index->stats().cuckoo_slices, 1u);
  EXPECT_EQ(catalog.Serialize(), before);
  size_t i = 0;
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    EXPECT_EQ(entry->filter->name(), names[i]) << entry->name;
    EXPECT_EQ(entry->filter->num_elements(), counts[i]) << entry->name;
    if (names[i] != "cuckoo") {
      EXPECT_EQ(entry->filter->capabilities(), uint32_t{kIncrementalAdd})
          << "a view adds incrementally and offers no merge";
    }
    ++i;
  }

  // The views and lane adapters keep the slices' bits alive: the catalog
  // answers and serializes the same once the index is gone, also after
  // adds into a lane.
  index.reset();
  EXPECT_EQ(catalog.Serialize(), before);
  SetCatalog reference = MakeCatalog(backends, 12, 50);
  for (const auto& key : MakeQueries(12, 50)) {
    EXPECT_EQ(BruteForce(catalog, key), BruteForce(reference, key)) << key;
  }
  for (int k = 0; k < 20; ++k) {
    const std::string key = "after-" + std::to_string(k);
    catalog.MutableFilter(3)->Add(key);  // a cuckoo lane
    reference.MutableFilter(3)->Add(key);
  }
  EXPECT_EQ(catalog.Serialize(), reference.Serialize());

  // And the index keeps them alive when the catalog goes first.
  auto owned = std::make_unique<SetCatalog>(MakeCatalog(backends, 12, 50));
  ASSERT_TRUE(MultiSetIndex::Build(owned.get(), {}, &index).ok());
  owned.reset();
  EXPECT_EQ(index->stats().sliced_sets, 12u);
  index.reset();
}

TEST(MultiSetIndexTest, AddKeyOnASlicedSetSerializesLikeARowBuiltTwin) {
  SetCatalog catalog = MakeCatalog({"shbf_m", "bloom", "cuckoo"}, 12, 50);
  SetCatalog twin = MakeCatalog({"shbf_m", "bloom", "cuckoo"}, 12, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  for (uint32_t id : {0u, 1u, 2u, 3u}) {  // shbf_m, bloom, cuckoo, shbf_m
    for (int k = 0; k < 5; ++k) {
      const std::string key =
          "late-" + std::to_string(id) + "-" + std::to_string(k);
      ASSERT_TRUE(index->AddKey(id, key).ok());
      twin.MutableFilter(id)->Add(key);
    }
  }
  index->PrepareForConstReads();
  EXPECT_EQ(catalog.Serialize(), twin.Serialize());
  EXPECT_EQ(catalog.FindById(0)->filter->num_elements(), 55u);
}

TEST(MultiSetIndexTest, TheSliceOwnsTheBits) {
  // 16 shbf_m sets, a whole number of column bytes, plus 4 cuckoo sets
  // and one shbf_x set, which scans.
  SetCatalog catalog = MakeCatalog(
      {"shbf_m", "shbf_m", "shbf_m", "shbf_m", "cuckoo"}, 20, 200);
  CheckOk(catalog.AddSet("scanned", MakeFilter("shbf_x", 200)));
  const size_t before = catalog.memory_bytes();
  const size_t row_bytes = catalog.FindById(0)->filter->memory_bytes();
  const size_t cuckoo_bytes = catalog.FindById(4)->filter->memory_bytes();
  const size_t scan_bytes = catalog.Find("scanned")->filter->memory_bytes();
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  const MultiSetIndex::Stats stats = index->stats();
  ASSERT_EQ(stats.slices, 2u);
  ASSERT_EQ(stats.cuckoo_slices, 1u);
  ASSERT_EQ(stats.sliced_sets, 20u);
  EXPECT_EQ(catalog.FindById(0)->filter->memory_bytes(), 0u)
      << "a view owns no bits";
  EXPECT_EQ(catalog.FindById(4)->filter->memory_bytes(), 0u)
      << "a lane adapter owns no slots";
  EXPECT_EQ(catalog.memory_bytes(), scan_bytes) << "only the scan set's";
  // No copy is kept: one row more for the SetSlice's probe template, and a
  // few words of lane bookkeeping for the CuckooSlice.
  EXPECT_LE(catalog.memory_bytes() + stats.memory_bytes,
            before + row_bytes + 64);
  EXPECT_GT(stats.memory_bytes, 15 * row_bytes + 4 * cuckoo_bytes)
      << "the slices hold the bits";
}

TEST(MultiSetIndexTest, WrappedSetsAreNotSliced) {
  // A dynamic/shbf_m set whose delta just folded forwards its active
  // filter's shbf_m fast path, so it shares the plain sets' probe geometry;
  // slicing it would drop every later add's delta. Neither it nor the
  // sharded/ set may slice.
  auto build = [] {
    SetCatalog catalog;
    for (size_t i = 0; i < 6; ++i) {
      FilterSpec spec = FilterSpec::ForKeys(100, 64.0, 4);
      if (i == 1 || i == 4) spec.delta_capacity = 40;
      if (i == 2 || i == 5) spec.shards = 2;
      std::unique_ptr<MembershipFilter> filter;
      CheckOk(FilterRegistry::Global().Create("shbf_m", spec, &filter));
      for (size_t k = 0; k < 40; ++k) {
        filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
      }
      CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
    }
    return catalog;
  };
  SetCatalog catalog = build();
  SetCatalog reference = build();
  ASSERT_EQ(catalog.FindById(1)->filter->name(), "dynamic/shbf_m");
  ASSERT_TRUE(std::holds_alternative<const WindowedFilter*>(
      catalog.FindById(1)->filter->batch_fast_path()));
  ASSERT_EQ(catalog.FindById(2)->filter->name(), "sharded/shbf_m");
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().slices, 1u);
  EXPECT_EQ(index->stats().sliced_sets, 2u) << "only sets 0 and 3";
  EXPECT_EQ(index->stats().scan_sets, 4u);
  EXPECT_EQ(catalog.FindById(1)->filter->name(), "dynamic/shbf_m");

  std::vector<std::string> queries = MakeQueries(6, 40);
  for (uint32_t id = 0; id < 6; ++id) {
    for (int k = 0; k < 10; ++k) {
      const std::string key =
          "late-" + std::to_string(id) + "-" + std::to_string(k);
      ASSERT_TRUE(index->AddKey(id, key).ok());
      reference.MutableFilter(id)->Add(key);
      queries.push_back(key);
    }
  }
  index->PrepareForConstReads();
  ExpectMatchesBruteForce(*index, reference, queries);
  EXPECT_EQ(catalog.Serialize(), reference.Serialize());
}

TEST(MultiSetIndexTest, IncrementalAddKeyReachesSlicesAndTheScan) {
  SetCatalog catalog = MakeCatalog({"shbf_m", "cuckoo"}, 16, 50);
  SetCatalog reference = MakeCatalog({"shbf_m", "cuckoo"}, 16, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  // New keys added through the index must be reported immediately.
  for (uint32_t id : {0u, 1u, 7u}) {  // sliced and scan sets
    const std::string key = "added-later-" + std::to_string(id);
    ASSERT_TRUE(index->AddKey(id, key).ok());
    reference.MutableFilter(id)->Add(key);
    index->PrepareForConstReads();
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_TRUE(got.Test(id)) << "set " << id << " lost an incremental add";
    EXPECT_EQ(got, BruteForce(reference, key));
  }
  EXPECT_EQ(index->AddKey(999, "x").code(), Status::Code::kNotFound);

  // Batch maintenance entry point.
  ASSERT_TRUE(index->AddKeys(2, {"bulk-1", "bulk-2"}).ok());
  index->PrepareForConstReads();
  SetIdBitmap got;
  index->WhichSets("bulk-2", &got);
  EXPECT_TRUE(got.Test(2));
}

TEST(MultiSetIndexTest, RemoveSetStopsReportingWithoutDisturbingOthers) {
  const std::vector<std::string> backends = {"shbf_m", "cuckoo", "shbf_x"};
  SetCatalog catalog = MakeCatalog(backends, 12, 50);
  SetCatalog reference = MakeCatalog(backends, 12, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  ASSERT_EQ(index->stats().slices, 2u);

  // Drop one sliced set (id 3), one cuckoo lane (id 4) and one scan set
  // (id 5): index first, then the catalog frees the filters.
  const std::vector<uint32_t> dropped = {3, 4, 5};
  for (uint32_t id : dropped) {
    const std::string name = "set-" + std::to_string(id);
    ASSERT_TRUE(index->RemoveSet(id).ok());
    ASSERT_TRUE(catalog.DropSet(name).ok());
    ASSERT_TRUE(reference.DropSet(name).ok());
  }
  EXPECT_EQ(index->RemoveSet(3).code(), Status::Code::kNotFound);
  EXPECT_EQ(index->stats().sets, 9u);
  EXPECT_EQ(index->stats().sliced_sets, 6u);
  EXPECT_EQ(index->stats().scan_sets, 3u);

  // The remaining lanes keep taking adds beside the dropped one.
  for (uint32_t id : {1u, 7u, 10u}) {
    const std::string key = "late-" + std::to_string(id);
    ASSERT_TRUE(index->AddKey(id, key).ok());
    reference.MutableFilter(id)->Add(key);
  }
  index->PrepareForConstReads();

  std::vector<std::string> queries = MakeQueries(12, 50);
  for (uint32_t id : dropped) {
    for (int k = 0; k < 50; ++k) {
      queries.push_back("set-" + std::to_string(id) + "-key-" +
                        std::to_string(k));
    }
  }
  for (uint32_t id : {1u, 7u, 10u}) {
    queries.push_back("late-" + std::to_string(id));
  }
  for (const auto& key : queries) {
    SetIdBitmap got;
    index->WhichSets(key, &got);
    for (uint32_t id : dropped) EXPECT_FALSE(got.Test(id)) << key;
  }
  ExpectMatchesBruteForce(*index, reference, queries);
}

TEST(MultiSetIndexTest, EachSharedGeometryGetsItsOwnSlice) {
  // One backend name, three geometries: two shared (two slices) and one
  // that no other set has (scanned).
  auto build = [] {
    SetCatalog catalog;
    const size_t capacities[] = {200, 200, 5000, 200, 5000, 900, 200};
    for (size_t i = 0; i < 7; ++i) {
      auto filter = MakeFilter("shbf_m", capacities[i]);
      for (int k = 0; k < 100; ++k) {
        filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
      }
      CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
    }
    return catalog;
  };
  SetCatalog catalog = build();
  const SetCatalog reference = build();
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_EQ(stats.slices, 2u);
  EXPECT_EQ(stats.sliced_sets, 6u);
  EXPECT_EQ(stats.scan_sets, 1u);
  ExpectMatchesBruteForce(*index, reference, MakeQueries(7, 100));
}

TEST(MultiSetIndexTest, ProbesNeverCrossHashFamilies) {
  // Each backend in two hash families or geometries: a probe shared across
  // families would turn member keys into false negatives. Three shbf_m
  // slices and a bloom slice sit beside two cuckoo slices, one per family.
  const struct {
    const char* name;
    size_t keys;
    uint64_t seed;
  } configs[] = {{"shbf_m", 300, 1}, {"shbf_m", 1200, 1}, {"shbf_m", 300, 2},
                 {"bloom", 300, 1},  {"cuckoo", 300, 1},  {"cuckoo", 300, 2}};
  std::vector<std::string> queries;
  auto build = [&](std::vector<std::string>* keys) {
    SetCatalog catalog;
    for (size_t i = 0; i < 24; ++i) {
      const auto& config = configs[i % 6];
      FilterSpec spec = FilterSpec::ForKeys(config.keys, 64.0, 4);
      spec.seed = config.seed;
      std::unique_ptr<MembershipFilter> filter;
      CheckOk(FilterRegistry::Global().Create(config.name, spec, &filter));
      for (size_t k = 0; k < 60; ++k) {
        const std::string key =
            "set-" + std::to_string(i) + "-key-" + std::to_string(k);
        if (keys != nullptr) keys->push_back(key);
        filter->Add(key);
      }
      CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
    }
    return catalog;
  };
  SetCatalog catalog = build(&queries);
  const SetCatalog reference = build(nullptr);
  // 2500 keys: one batch past the 1024-key frames, with a partial group.
  for (int i = 0; queries.size() < 2500; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().slices, 6u);
  EXPECT_EQ(index->stats().cuckoo_slices, 2u);
  EXPECT_EQ(index->stats().scan_sets, 0u);
  ExpectMatchesBruteForce(*index, reference, queries);

  std::vector<SetIdBitmap> answers;
  index->WhichSetsBatch(std::vector<std::string>{}, &answers);
  EXPECT_TRUE(answers.empty());
}

TEST(MultiSetIndexTest, CuckooSetsFilledToFailureMatchBruteForce) {
  // A tiny cuckoo set driven to its first failed insert parks a fingerprint
  // in the victim stash and keeps the probe fast path; one more add lands
  // in the exact overfull side table, which takes the set off the fast
  // path. Both still slice, with a third set one add short of its stash
  // that AddKey fills after the build: the slice must ask all three
  // through Contains, since their buckets do not show every key.
  const FilterSpec tiny = FilterSpec::ForKeys(16, 64.0, 4);
  auto key = [](size_t k) { return "full-key-" + std::to_string(k); };
  auto fill = [&](size_t adds) {
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create("cuckoo", tiny, &filter));
    for (size_t k = 0; k < adds; ++k) filter->Add(key(k));
    return filter;
  };
  size_t first_failure = 0;
  auto growing = fill(0);
  for (size_t k = 0; k < 200 && first_failure == 0; ++k) {
    growing->Add(key(k));
    if (std::holds_alternative<std::monostate>(growing->batch_fast_path())) {
      first_failure = k;  // add k overflowed: add k - 1 failed
    }
  }
  ASSERT_GT(first_failure, 1u) << "200 adds never overflowed a tiny cuckoo";

  auto build = [&] {
    SetCatalog catalog = MakeCatalog({"shbf_m", "shbf_m", "cuckoo"}, 12, 50);
    auto stashed = fill(first_failure);
    auto overfull = fill(first_failure + 40);
    auto late = fill(first_failure - 1);
    EXPECT_TRUE(std::holds_alternative<const CuckooFilter*>(
        stashed->batch_fast_path()));
    EXPECT_TRUE(
        std::holds_alternative<std::monostate>(overfull->batch_fast_path()));
    EXPECT_TRUE(
        static_cast<const CuckooAdapter*>(stashed.get())->impl().HasVictim());
    EXPECT_FALSE(
        static_cast<const CuckooAdapter*>(late.get())->impl().HasVictim());
    CheckOk(catalog.AddSet("stashed", std::move(stashed)));
    CheckOk(catalog.AddSet("overfull", std::move(overfull)));
    CheckOk(catalog.AddSet("late", std::move(late)));
    return catalog;
  };
  SetCatalog catalog = build();
  SetCatalog reference = build();
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().cuckoo_slices, 2u)
      << "the 50-key and the tiny geometry";
  EXPECT_EQ(index->stats().scan_sets, 0u);

  std::vector<std::string> queries = MakeQueries(12, 50);
  const size_t first_full_key = queries.size();
  for (size_t k = 0; k < first_failure + 40; ++k) queries.push_back(key(k));
  ExpectMatchesBruteForce(*index, reference, queries);

  // The late set's stash fills inside its lane, after the build.
  const uint32_t late_id = catalog.Find("late")->id;
  ASSERT_TRUE(index->AddKey(late_id, key(first_failure - 1)).ok());
  reference.MutableFilter(late_id)->Add(key(first_failure - 1));
  index->PrepareForConstReads();
  ASSERT_TRUE(static_cast<const CuckooAdapter*>(catalog.FindById(late_id)
                                                    ->filter.get())
                  ->impl()
                  .HasVictim());
  ExpectMatchesBruteForce(*index, reference, queries);
  EXPECT_EQ(catalog.Serialize(), reference.Serialize());

  // No false negatives, independent of Contains: every key whose
  // fingerprint sits in a stash must still be reported.
  std::vector<SetIdBitmap> answers;
  index->WhichSetsBatch(queries, &answers);
  const uint32_t stashed_id = catalog.Find("stashed")->id;
  for (size_t k = 0; k < first_failure; ++k) {
    EXPECT_TRUE(answers[first_full_key + k].Test(stashed_id)) << key(k);
    EXPECT_TRUE(answers[first_full_key + k].Test(late_id)) << key(k);
  }
}

TEST(MultiSetIndexTest, CuckooSliceOfMoreThan64Lanes) {
  // 65 cuckoo sets: a second live-mask word holding one lane. Lane 64
  // takes adds, and dropping lane 63 must not touch it.
  SetCatalog catalog = MakeCatalog({"cuckoo"}, 65, 40);
  SetCatalog reference = MakeCatalog({"cuckoo"}, 65, 40);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().cuckoo_slices, 1u);
  EXPECT_EQ(index->stats().sliced_sets, 65u);
  std::vector<std::string> queries = MakeQueries(65, 40);
  for (size_t i = 60; i < 65; ++i) {
    queries.push_back("set-" + std::to_string(i) + "-key-7");
  }
  ExpectMatchesBruteForce(*index, reference, queries);

  for (int k = 0; k < 10; ++k) {
    const std::string key = "late-64-" + std::to_string(k);
    ASSERT_TRUE(index->AddKey(64, key).ok());
    reference.MutableFilter(64)->Add(key);
    queries.push_back(key);
  }
  ASSERT_TRUE(index->RemoveSet(63).ok());
  ASSERT_TRUE(catalog.DropSet("set-63").ok());
  ASSERT_TRUE(reference.DropSet("set-63").ok());
  index->PrepareForConstReads();
  EXPECT_EQ(index->stats().sliced_sets, 64u);
  ExpectMatchesBruteForce(*index, reference, queries);
  EXPECT_EQ(catalog.Serialize(), reference.Serialize());
}

// Every bucket geometry of cuckoo_filter_test's grid: one to eight slots
// by 4- to 32-bit fingerprints. A geometry whose bucket is a whole number
// of bytes, at most 7, slices; every other geometry scans. Each catalog
// holds four cuckoo sets of the geometry: half full and one add short of
// its stash (lanes 0 and 1, which the row test answers alone), then a
// stashed and an overfull set (exception lanes).
class CuckooSliceGeometryTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(CuckooSliceGeometryTest, SliceableGeometriesMatchBruteForceOthersScan) {
  const auto [bucket_size, fingerprint_bits] = GetParam();
  constexpr size_t kBuckets = 64;
  FilterSpec spec;
  spec.num_cells = kBuckets * bucket_size * fingerprint_bits;
  spec.bucket_size = bucket_size;
  spec.fingerprint_bits = fingerprint_bits;
  auto key = [](size_t set, size_t k) {
    return "g" + std::to_string(set) + "-key-" + std::to_string(k);
  };
  auto fill = [&](size_t set, size_t adds) {
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create("cuckoo", spec, &filter));
    for (size_t k = 0; k < adds; ++k) filter->Add(key(set, k));
    return filter;
  };
  // The number of adds after which set `set`'s stash is used.
  auto stashing_adds = [&](size_t set) {
    auto filter = fill(set, 0);
    for (size_t k = 0; k < 8 * kBuckets * bucket_size; ++k) {
      filter->Add(key(set, k));
      if (static_cast<const CuckooAdapter*>(filter.get())->impl().HasVictim()) {
        return k + 1;
      }
    }
    return size_t{0};
  };
  std::vector<size_t> adds;
  for (size_t set = 0; set < 4; ++set) {
    adds.push_back(stashing_adds(set));
    ASSERT_GT(adds.back(), 1u) << "set " << set << " never stashed";
  }
  adds[0] /= 2;
  adds[1] -= 1;
  adds[3] += 20;
  auto build = [&] {
    SetCatalog catalog;
    for (size_t set = 0; set < 4; ++set) {
      CheckOk(catalog.AddSet("g" + std::to_string(set), fill(set, adds[set])));
    }
    return catalog;
  };
  SetCatalog catalog = build();
  SetCatalog reference = build();
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  const uint32_t bucket_bits = bucket_size * fingerprint_bits;
  const bool sliceable = bucket_bits % 8 == 0 && bucket_bits / 8 <= 7;
  EXPECT_EQ(index->stats().cuckoo_slices, sliceable ? 1u : 0u);
  EXPECT_EQ(index->stats().scan_sets, sliceable ? 0u : 4u);

  std::vector<std::string> queries;
  for (size_t set = 0; set < 4; ++set) {
    for (size_t k = 0; k < adds[set] + 20; ++k) queries.push_back(key(set, k));
  }
  for (int i = 0; i < 300; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  ExpectMatchesBruteForce(*index, reference, queries);

  // Set 1's next add fills its stash inside its lane.
  ASSERT_TRUE(index->AddKey(1, key(1, adds[1])).ok());
  reference.MutableFilter(1)->Add(key(1, adds[1]));
  index->PrepareForConstReads();
  ASSERT_TRUE(static_cast<const CuckooAdapter*>(catalog.FindById(1)
                                                    ->filter.get())
                  ->impl()
                  .HasVictim());
  ExpectMatchesBruteForce(*index, reference, queries);
  EXPECT_EQ(catalog.Serialize(), reference.Serialize());
}

INSTANTIATE_TEST_SUITE_P(
    BucketsByFingerprints, CuckooSliceGeometryTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(4u, 8u, 12u, 16u, 17u, 32u)),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MultiSetIndexTest, SetsPastTheProbeBoundStayOnTheScan) {
  // A slice holds 64 probe positions, as the engine's shbf_m and bloom
  // probes do: at k = 64 the sets slice, and at k = 72 every set is
  // scanned, with the same answers.
  for (const uint32_t k : {64u, 72u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto build = [&] {
      SetCatalog catalog;
      for (size_t i = 0; i < 6; ++i) {
        auto filter = MakeFilter(i % 2 ? "bloom" : "shbf_m", 100, 64.0, k);
        for (size_t key = 0; key < 100; ++key) {
          filter->Add("set-" + std::to_string(i) + "-key-" +
                      std::to_string(key));
        }
        CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
      }
      return catalog;
    };
    SetCatalog catalog = build();
    const SetCatalog reference = build();
    std::unique_ptr<MultiSetIndex> index;
    ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
    EXPECT_EQ(index->stats().slices, k == 64 ? 2u : 0u);
    EXPECT_EQ(index->stats().scan_sets, k == 64 ? 0u : 6u);
    ExpectMatchesBruteForce(*index, reference, MakeQueries(6, 100));
  }
}

TEST(MultiSetIndexTest, ManyProbeGeometriesMatchBruteForce) {
  // Sized per set, as `shbf_cli multiset build` sizes them: 48 shbf_m sets
  // of distinct sizes, each its own probe geometry (scanned), plus six
  // geometries of three sets each (six slices). Under force_scan all 66
  // take their own engine pass.
  std::vector<std::string> queries;
  auto build = [&](bool record) {
    SetCatalog catalog;
    auto add_set = [&](size_t capacity, size_t members) {
      const std::string name = "set-" + std::to_string(catalog.size());
      auto filter = MakeFilter("shbf_m", capacity);
      for (size_t k = 0; k < members; ++k) {
        const std::string key = name + "-key-" + std::to_string(k);
        if (record) queries.push_back(key);
        filter->Add(key);
      }
      CheckOk(catalog.AddSet(name, std::move(filter)));
    };
    for (size_t i = 0; i < 48; ++i) add_set(40 + 7 * i, 40 + 7 * i);
    for (size_t g = 0; g < 6; ++g) {
      for (size_t copy = 0; copy < 3; ++copy) add_set(1000 + 100 * g, 30);
    }
    return catalog;
  };
  SetCatalog catalog = build(true);
  SetCatalog scanned = build(false);
  const SetCatalog reference = build(false);
  ASSERT_GT(queries.size(), 1024u);
  for (int i = 0; i < 1000; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().slices, 6u);
  EXPECT_EQ(index->stats().scan_sets, 48u);
  ExpectMatchesBruteForce(*index, reference, queries);

  MultiSetIndexOptions scan_options;
  scan_options.force_scan = true;
  std::unique_ptr<MultiSetIndex> scan;
  ASSERT_TRUE(MultiSetIndex::Build(&scanned, scan_options, &scan).ok());
  EXPECT_EQ(scan->stats().scan_sets, 66u);
  ExpectMatchesBruteForce(*scan, reference, queries);
}

std::string EdgeKey(size_t id, size_t k) {
  return "set-" + std::to_string(id) + "-key-" + std::to_string(k);
}

/// A catalog with id_bound() == `bound`; set i is "set-<i>". From bound 5
/// up, the top three ids are a shbf_x set (scanned), a tiny cuckoo set with
/// 4 keys and one filled until its victim stash is used (the two lanes of a
/// CuckooSlice, the second an exception lane); every other set is a
/// shbf_m set of one geometry (the SetSlice). Deterministic, so two calls
/// build twins.
SetCatalog MakeEdgeCatalog(size_t bound) {
  const FilterSpec tiny = FilterSpec::ForKeys(16, 64.0, 4);
  SetCatalog catalog;
  for (size_t id = 0; id < bound; ++id) {
    const size_t from_top = bound - 1 - id;
    const bool stashed = bound >= 5 && from_top == 0;
    std::unique_ptr<MembershipFilter> filter;
    size_t adds = 20;
    if (bound < 5 || from_top > 2) {
      filter = MakeFilter("shbf_m", 20);
    } else if (from_top == 2) {
      filter = MakeFilter("shbf_x", 20);
    } else {
      CheckOk(FilterRegistry::Global().Create("cuckoo", tiny, &filter));
      adds = stashed ? 200 : 4;
    }
    for (size_t k = 0; k < adds; ++k) {
      if (stashed &&
          static_cast<const CuckooAdapter*>(filter.get())->impl().HasVictim()) {
        break;  // the stash is used
      }
      filter->Add(EdgeKey(id, k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(id), std::move(filter)));
  }
  return catalog;
}

/// Runs `keys` through `index` in frames of `frame_keys` keys (one empty
/// frame for 0): the rows, both bitmap adapters and, for one key,
/// WhichSets must equal BruteForce over `reference`'s live sets, with
/// padding bits and dropped ids clear.
void ExpectRowsMatchBruteForce(const MultiSetIndex& index,
                               const SetCatalog& reference,
                               const std::vector<std::string>& keys,
                               size_t frame_keys) {
  std::vector<std::vector<std::string>> frames;
  if (frame_keys == 0) frames.emplace_back();
  for (size_t begin = 0; frame_keys != 0 && begin < keys.size();
       begin += frame_keys) {
    frames.emplace_back(keys.begin() + begin,
                        keys.begin() + std::min(begin + frame_keys,
                                                keys.size()));
  }
  SetIdRows rows;
  std::vector<SetIdBitmap> bitmaps;
  std::vector<SetIdBitmap> view_bitmaps(3);  // the adapter must resize it
  for (const std::vector<std::string>& frame : frames) {
    const std::vector<std::string_view> views(frame.begin(), frame.end());
    index.WhichSetsBatch(views, &rows);
    index.WhichSetsBatch(frame, &bitmaps);
    index.WhichSetsBatch(views, &view_bitmaps);
    ASSERT_EQ(rows.rows(), frame.size());
    ASSERT_EQ(rows.universe(), index.id_bound());
    ASSERT_EQ(bitmaps.size(), frame.size());
    ASSERT_EQ(view_bitmaps.size(), frame.size());
    for (size_t i = 0; i < frame.size(); ++i) {
      SCOPED_TRACE(frame[i]);
      const SetIdBitmap want = BruteForce(reference, frame[i]);
      ASSERT_EQ(rows.RowWords(i).size(), (index.id_bound() + 63) / 64);
      std::vector<uint32_t> ids;
      rows.ForEachId(i, [&](uint32_t id) { ids.push_back(id); });
      ASSERT_EQ(ids, want.ToIds()) << "a padding or dropped bit is set";
      ASSERT_EQ(rows.Count(i), want.Count());
      for (uint32_t id = 0; id < index.id_bound() + 64; ++id) {
        ASSERT_EQ(rows.Test(i, id), want.Test(id)) << "id " << id;
      }
      SetIdBitmap copied;
      copied.AssignRow(rows, i);
      ASSERT_EQ(copied, want);
      ASSERT_EQ(bitmaps[i], want);
      ASSERT_EQ(view_bitmaps[i], want);
      if (frame.size() == 1) {
        SetIdBitmap single;
        index.WhichSets(frame[i], &single);
        ASSERT_EQ(single, want);
      }
    }
  }
}

TEST(MultiSetIndexTest, AnswerRowsAtWordEdgesMatchBruteForce) {
  for (size_t bound : {1, 63, 64, 65, 129}) {
    SCOPED_TRACE("id_bound " + std::to_string(bound));
    SetCatalog catalog = MakeEdgeCatalog(bound);
    SetCatalog reference = MakeEdgeCatalog(bound);
    std::unique_ptr<MultiSetIndex> index;
    ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
    ASSERT_EQ(index->id_bound(), bound);
    const MultiSetIndex::Stats stats = index->stats();
    if (bound >= 5) {
      ASSERT_TRUE(static_cast<const CuckooAdapter*>(
                      reference.FindById(bound - 1)->filter.get())
                      ->impl()
                      .HasVictim());
      EXPECT_EQ(stats.slices, 2u);
      EXPECT_EQ(stats.cuckoo_slices, 1u);
      EXPECT_EQ(stats.scan_sets, 1u);
      // One probe per key each for the SetSlice, the CuckooSlice, its
      // exception lane and the scan set.
      SetIdRows rows;
      index->WhichSetsBatch(std::vector<std::string>{"probe"}, &rows);
      EXPECT_EQ(index->stats().probes - stats.probes, 4u);
    } else {
      EXPECT_EQ(stats.scan_sets, 1u) << "a one-set catalog scans";
    }

    // Each set's 20 candidate keys (members, or absent from the 4-key
    // cuckoo set past its fourth), the stashed set's 200 (its victim is
    // one of them), and absent keys.
    std::vector<std::string> keys;
    for (size_t id = 0; id < bound; ++id) {
      const size_t candidates = bound >= 5 && id + 1 == bound ? 200 : 20;
      for (size_t k = 0; k < candidates; ++k) keys.push_back(EdgeKey(id, k));
    }
    for (int i = 0; i < 40; ++i) keys.push_back("absent-" + std::to_string(i));
    for (size_t frame_keys : {0, 1, 33}) {
      SCOPED_TRACE(std::to_string(frame_keys) + "-key frames");
      ExpectRowsMatchBruteForce(*index, reference, keys, frame_keys);
    }

    // Dropping a set leaves id_bound above the live sets; its bit must
    // stay clear. Id 63 is a word's top bit: the stashed cuckoo lane at
    // bounds 63 and 64, the other cuckoo lane at 65 and a SetSlice slot at
    // 129.
    const auto dropped = static_cast<uint32_t>(std::min<size_t>(63, bound - 1));
    const std::string name = "set-" + std::to_string(dropped);
    ASSERT_TRUE(index->RemoveSet(dropped).ok());
    ASSERT_TRUE(catalog.DropSet(name).ok());
    ASSERT_TRUE(reference.DropSet(name).ok());
    index->PrepareForConstReads();
    EXPECT_EQ(index->id_bound(), bound);
    for (size_t frame_keys : {0, 1, 33}) {
      SCOPED_TRACE("after the drop, " + std::to_string(frame_keys) +
                   "-key frames");
      ExpectRowsMatchBruteForce(*index, reference, keys, frame_keys);
    }
  }
}

TEST(MultiSetIndexTest, BuildRejectsAnEmptyCatalog) {
  SetCatalog empty;
  std::unique_ptr<MultiSetIndex> index;
  EXPECT_EQ(MultiSetIndex::Build(&empty, {}, &index).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(MultiSetIndex::Build(nullptr, {}, &index).code(),
            Status::Code::kFailedPrecondition);
}

TEST(MultiSetIndexTest, SetIdBitmapBasics) {
  SetIdBitmap bitmap(130);
  EXPECT_EQ(bitmap.Count(), 0u);
  bitmap.Set(0);
  bitmap.Set(64);
  bitmap.Set(129);
  EXPECT_TRUE(bitmap.Test(64));
  EXPECT_FALSE(bitmap.Test(63));
  EXPECT_FALSE(bitmap.Test(500));  // out of universe = absent, not UB
  EXPECT_EQ(bitmap.Count(), 3u);
  EXPECT_EQ(bitmap.ToIds(), (std::vector<uint32_t>{0, 64, 129}));
  SetIdBitmap other(130);
  EXPECT_NE(bitmap, other);
  other.Set(0);
  other.Set(64);
  other.Set(129);
  EXPECT_EQ(bitmap, other);
  bitmap.ClearAll();
  EXPECT_EQ(bitmap.Count(), 0u);
}

}  // namespace
}  // namespace shbf
