// MultiSetIndex: the tree index must answer WhichSets bit-identically to a
// brute-force Contains loop over the catalog (same false positives, no
// false negatives) for mixed mergeable/non-mergeable backends, stay correct
// under incremental AddKey/RemoveSet maintenance, and degrade (not fail)
// when geometries refuse to merge.

#include "multiset/multi_set_index.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/filter_registry.h"
#include "api/set_catalog.h"

namespace shbf {
namespace {

/// Indexable sets are built SPARSE (64 bits/key, k = 4): a summary node is
/// the bitwise union of its children, so leaves need headroom for their
/// union to stay discriminative (docs/multiset.md, "tree vs scan").
std::unique_ptr<MembershipFilter> MakeFilter(const std::string& name,
                                             size_t keys = 300,
                                             double bits_per_key = 64.0) {
  FilterSpec spec = FilterSpec::ForKeys(keys, bits_per_key, 4);
  spec.max_count = 8;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create(name, spec, &filter));
  return filter;
}

/// `num_sets` sets named "set-<i>" with `keys_per_set` keys each; set i uses
/// backends[i % backends.size()].
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

/// The ground-truth which-sets loop: every live catalog filter, per key.
SetIdBitmap BruteForce(const SetCatalog& catalog, std::string_view key) {
  SetIdBitmap bitmap(catalog.id_bound());
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    if (entry->filter->Contains(key)) bitmap.Set(entry->id);
  }
  return bitmap;
}

TEST(MultiSetIndexTest, BitIdenticalToBruteForceOverMixedBackends) {
  // Mergeable (shbf_m, bloom — two tree groups) interleaved with
  // non-mergeable (cuckoo, shbf_x — scan fallback).
  SetCatalog catalog =
      MakeCatalog({"shbf_m", "shbf_m", "bloom", "cuckoo", "shbf_x"}, 20, 80);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_EQ(stats.sets, 20u);
  EXPECT_GT(stats.summary_nodes, 0u);
  EXPECT_EQ(stats.trees, 2u) << "one tree per mergeable backend";
  EXPECT_EQ(stats.scan_leaves, 8u) << "cuckoo + shbf_x sets scan";
  EXPECT_EQ(stats.tree_leaves, 12u);

  const std::vector<std::string> queries = MakeQueries(20, 80);
  std::vector<SetIdBitmap> batched;
  index->WhichSetsBatch(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const SetIdBitmap want = BruteForce(catalog, queries[q]);
    EXPECT_EQ(batched[q], want) << "batch diverges at query " << q;
    SetIdBitmap single;
    index->WhichSets(queries[q], &single);
    EXPECT_EQ(single, want) << "single-key diverges at query " << q;
  }
}

TEST(MultiSetIndexTest, ForceScanMatchesTreeAnswers) {
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 32, 60);
  std::unique_ptr<MultiSetIndex> tree;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &tree).ok());
  MultiSetIndexOptions scan_options;
  scan_options.force_scan = true;
  std::unique_ptr<MultiSetIndex> scan;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, scan_options, &scan).ok());
  EXPECT_EQ(scan->stats().summary_nodes, 0u);

  const std::vector<std::string> queries = MakeQueries(32, 60);
  std::vector<SetIdBitmap> tree_answers;
  std::vector<SetIdBitmap> scan_answers;
  tree->WhichSetsBatch(queries, &tree_answers);
  scan->WhichSetsBatch(queries, &scan_answers);
  EXPECT_EQ(tree_answers, scan_answers);

  // The whole point: the tree consults far fewer filters on this
  // absent-heavy stream than the scan does.
  EXPECT_LT(tree->stats().probes, scan->stats().probes / 2);
}

TEST(MultiSetIndexTest, DeepTreeStaysCorrect) {
  // branching 2 over 33 sets: 6+ levels, lone-tail promotions included.
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 33, 40);
  MultiSetIndexOptions options;
  options.branching = 2;
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, options, &index).ok());
  EXPECT_GE(index->stats().levels, 6u);
  for (const auto& key : MakeQueries(33, 40)) {
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_EQ(got, BruteForce(catalog, key));
  }
}

TEST(MultiSetIndexTest, IncrementalAddKeyMaintainsSummaries) {
  SetCatalog catalog = MakeCatalog({"shbf_m", "cuckoo"}, 16, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  // New keys added through the index must be reported immediately — for a
  // tree leaf that means every summary on the root path absorbed them.
  for (uint32_t id : {0u, 1u, 7u}) {  // shbf_m and cuckoo leaves
    const std::string key = "added-later-" + std::to_string(id);
    ASSERT_TRUE(index->AddKey(id, key).ok());
    index->PrepareForConstReads();
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_TRUE(got.Test(id)) << "set " << id << " lost an incremental add";
    EXPECT_EQ(got, BruteForce(catalog, key));
  }
  EXPECT_EQ(index->AddKey(999, "x").code(), Status::Code::kNotFound);

  // Batch maintenance entry point.
  ASSERT_TRUE(index->AddKeys(3, {"bulk-1", "bulk-2"}).ok());
  index->PrepareForConstReads();
  SetIdBitmap got;
  index->WhichSets("bulk-2", &got);
  EXPECT_TRUE(got.Test(3));
}

TEST(MultiSetIndexTest, RemoveSetStopsReportingWithoutDisturbingOthers) {
  SetCatalog catalog = MakeCatalog({"shbf_m", "cuckoo"}, 12, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  // Drop one tree leaf (id 2) and one scan leaf (id 5): index first, then
  // the catalog frees the filters.
  ASSERT_TRUE(index->RemoveSet(2).ok());
  ASSERT_TRUE(index->RemoveSet(5).ok());
  ASSERT_TRUE(catalog.DropSet("set-2").ok());
  ASSERT_TRUE(catalog.DropSet("set-5").ok());
  EXPECT_EQ(index->RemoveSet(2).code(), Status::Code::kNotFound);
  EXPECT_EQ(index->stats().sets, 10u);

  for (const auto& key : MakeQueries(12, 50)) {
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_FALSE(got.Test(2));
    EXPECT_FALSE(got.Test(5));
    EXPECT_EQ(got, BruteForce(catalog, key)) << key;
  }
}

TEST(MultiSetIndexTest, MismatchedGeometrySetsDemoteToScan) {
  // Same backend name, incompatible geometry: MergeFrom refuses, the index
  // demotes the odd ones out to the scan list and stays bit-identical.
  SetCatalog catalog;
  for (int i = 0; i < 6; ++i) {
    const bool big = i >= 4;
    auto filter = MakeFilter("shbf_m", big ? 5000 : 200);
    for (int k = 0; k < 100; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_GT(index->stats().scan_leaves, 0u);
  for (int i = 0; i < 6; ++i) {
    for (int k : {0, 99}) {
      const std::string key =
          "set-" + std::to_string(i) + "-key-" + std::to_string(k);
      SetIdBitmap got;
      index->WhichSets(key, &got);
      EXPECT_EQ(got, BruteForce(catalog, key)) << key;
    }
  }
}

TEST(MultiSetIndexTest, GeometryClustersThatCannotMergeBecomeSeparateRoots) {
  // One backend name, two geometry clusters big enough that EACH builds
  // its own summary; the summaries refuse to merge at the next level and
  // must be finalized as separate roots — build succeeds, answers stay
  // bit-identical (regression: this used to fail the whole Build with
  // kInternal).
  SetCatalog catalog;
  for (int i = 0; i < 6; ++i) {
    const bool big = i >= 4;
    auto filter = MakeFilter("shbf_m", big ? 5000 : 200);
    for (int k = 0; k < 100; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  MultiSetIndexOptions options;
  options.branching = 2;  // both clusters aggregate before they collide
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, options, &index).ok());
  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_GE(stats.trees, 2u) << "the clusters must index independently";
  EXPECT_EQ(stats.scan_leaves, 0u) << "no set should fall back to scan";
  for (int i = 0; i < 6; ++i) {
    for (int k : {0, 99}) {
      const std::string key =
          "set-" + std::to_string(i) + "-key-" + std::to_string(k);
      SetIdBitmap got;
      index->WhichSets(key, &got);
      EXPECT_EQ(got, BruteForce(catalog, key)) << key;
    }
  }
}

TEST(MultiSetIndexTest, ProbesNeverCrossHashFamilies) {
  // Each backend in two hash families or geometries: a probe shared across
  // families would turn member keys into false negatives. Same-name sets
  // that refuse to merge scan, so scan leaves and tree nodes both mix
  // families.
  const struct {
    const char* name;
    size_t keys;
    uint64_t seed;
  } configs[] = {{"shbf_m", 300, 1}, {"shbf_m", 1200, 1}, {"shbf_m", 300, 2},
                 {"bloom", 300, 1},  {"cuckoo", 300, 1},  {"cuckoo", 300, 2}};
  SetCatalog catalog;
  std::vector<std::string> queries;
  for (size_t i = 0; i < 24; ++i) {
    const auto& config = configs[i % 6];
    FilterSpec spec = FilterSpec::ForKeys(config.keys, 64.0, 4);
    spec.seed = config.seed;
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create(config.name, spec, &filter));
    for (size_t k = 0; k < 60; ++k) {
      queries.push_back("set-" + std::to_string(i) + "-key-" +
                        std::to_string(k));
      filter->Add(queries.back());
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  // Past two SharedProbeBatch chunks, with a partial tail.
  for (int i = 0; queries.size() < 2500; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_GT(index->stats().summary_nodes, 0u);
  EXPECT_GT(index->stats().scan_leaves, 8u);

  std::vector<SetIdBitmap> answers;
  index->WhichSetsBatch(queries, &answers);
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(answers[q], BruteForce(catalog, queries[q])) << queries[q];
  }
  const std::vector<std::string> one = {queries[61]};
  index->WhichSetsBatch(one, &answers);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], BruteForce(catalog, one[0]));
  index->WhichSetsBatch(std::vector<std::string>{}, &answers);
  EXPECT_TRUE(answers.empty());
}

TEST(MultiSetIndexTest, CuckooSetsFilledToFailureMatchBruteForce) {
  // A tiny cuckoo set driven to its first failed insert parks a fingerprint
  // in the victim stash and keeps the probe fast path, so the shared probe
  // must consult the stash. One more add lands in the exact overfull side
  // table, which takes the set off the fast path.
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
    if (growing->batch_fast_path().kind == BatchFastPath::Kind::kNone) {
      first_failure = k;  // add k overflowed: add k - 1 failed
    }
  }
  ASSERT_GT(first_failure, 0u) << "200 adds never overflowed a tiny cuckoo";

  SetCatalog catalog = MakeCatalog({"shbf_m", "shbf_m", "cuckoo"}, 12, 50);
  auto stashed = fill(first_failure);
  auto overfull = fill(first_failure + 40);
  EXPECT_EQ(stashed->batch_fast_path().kind, BatchFastPath::Kind::kCuckoo);
  EXPECT_EQ(overfull->batch_fast_path().kind, BatchFastPath::Kind::kNone);
  CheckOk(catalog.AddSet("stashed", std::move(stashed)));
  CheckOk(catalog.AddSet("overfull", std::move(overfull)));
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  std::vector<std::string> queries = MakeQueries(12, 50);
  const size_t first_full_key = queries.size();
  for (size_t k = 0; k < first_failure + 40; ++k) queries.push_back(key(k));
  std::vector<SetIdBitmap> answers;
  index->WhichSetsBatch(queries, &answers);
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(answers[q], BruteForce(catalog, queries[q])) << queries[q];
  }
  // No false negatives, independent of Contains: the key whose fingerprint
  // sits in the stash must still be reported.
  const uint32_t stashed_id = catalog.Find("stashed")->id;
  for (size_t k = 0; k < first_failure; ++k) {
    EXPECT_TRUE(answers[first_full_key + k].Test(stashed_id)) << key(k);
  }
}

TEST(MultiSetIndexTest, ManyProbeGeometriesMatchBruteForce) {
  // Sized per set, as `shbf_cli multiset build` sizes them: 48 shbf_m sets
  // of distinct sizes, each its own probe geometry (they refuse to merge
  // and scan), plus six geometries of three sets each, more than a
  // SharedProbeBatch has stores, so some shared geometries get a store and
  // the rest, like the distinct ones, their own engine pass.
  SetCatalog catalog;
  std::vector<std::string> queries;
  auto add_set = [&](size_t capacity, size_t members) {
    const std::string name = "set-" + std::to_string(catalog.size());
    auto filter = MakeFilter("shbf_m", capacity);
    for (size_t k = 0; k < members; ++k) {
      queries.push_back(name + "-key-" + std::to_string(k));
      filter->Add(queries.back());
    }
    CheckOk(catalog.AddSet(name, std::move(filter)));
  };
  for (size_t i = 0; i < 48; ++i) add_set(40 + 7 * i, 40 + 7 * i);
  for (size_t g = 0; g < 6; ++g) {
    for (size_t copy = 0; copy < 3; ++copy) add_set(1000 + 100 * g, 30);
  }
  ASSERT_GT(queries.size(), SharedProbeBatch::kMaxKeys);
  for (int i = 0; i < 1000; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_GE(index->stats().scan_leaves, 48u);

  std::vector<SetIdBitmap> answers;
  index->WhichSetsBatch(queries, &answers);
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(answers[q], BruteForce(catalog, queries[q])) << queries[q];
  }
}

TEST(MultiSetIndexTest, BuildRejectsBadInputs) {
  SetCatalog empty;
  std::unique_ptr<MultiSetIndex> index;
  EXPECT_EQ(MultiSetIndex::Build(&empty, {}, &index).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(MultiSetIndex::Build(nullptr, {}, &index).code(),
            Status::Code::kFailedPrecondition);
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 4, 20);
  MultiSetIndexOptions options;
  options.branching = 1;
  EXPECT_EQ(MultiSetIndex::Build(&catalog, options, &index).code(),
            Status::Code::kInvalidArgument);
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
