// Engine-vs-per-key differential: BatchQueryEngine must be bit-identical to
// the per-key interface for every registered filter — the fast paths are
// an execution strategy, never a semantic change — at a k inside the probe
// protocol's bound and one above it, where the engine falls back to the
// filter's virtual ContainsBatch. The string_view batch
// overloads (engine, sharded wrapper, multi-set index) must answer exactly
// like the string paths they shadow. Also pins down that the probe-protocol
// structures actually expose their fast path (a silently dropped fast path
// would keep answers right and throughput wrong).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "engine/auto_scaling_filter.h"
#include "engine/batch_query_engine.h"
#include "engine/dynamic_filter.h"
#include "multiset/multi_set_index.h"
#include "obs/metrics.h"
#include "shbf/shbf_association.h"
#include "shbf/shbf_multiplicity.h"
#include "shbf/split_block_filter.h"
#include "shbf/windowed_filter.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

constexpr size_t kNumKeys = 3000;

// k = 72 is above the windowed core's 64-hash probe bound (bloom, shbf_m,
// shbf_g).
constexpr uint32_t kHashCounts[] = {8, 72};

FilterSpec EngineSpec(uint64_t seed, uint32_t num_hashes = 8) {
  FilterSpec spec;
  spec.num_cells = 12 * kNumKeys;
  spec.num_hashes = num_hashes;
  spec.expected_keys = kNumKeys;
  spec.max_count = 8;
  spec.seed = seed;
  return spec;
}

std::vector<std::string> Universe(uint64_t seed) {
  TraceGenerator gen(seed);
  return gen.DistinctFlowKeys(2 * kNumKeys);  // half members, half absent
}

struct EngineCase {
  std::string label;
  std::string name;
  FilterSpec spec;
};

// Every registered filter, plus the dynamic and scaling wrappers over bloom
// and shbf_m, whose batches reach their inner filters through an engine.
std::vector<EngineCase> EngineCases(uint64_t seed, uint32_t num_hashes) {
  std::vector<EngineCase> cases;
  for (const auto& name : FilterRegistry::Global().Names()) {
    cases.push_back({name, name, EngineSpec(seed, num_hashes)});
  }
  for (const char* name : {"bloom", "shbf_m"}) {
    FilterSpec dynamic = EngineSpec(seed, num_hashes);
    dynamic.delta_capacity = 1024;  // 3000 adds: two folds, 952 in the delta
    cases.push_back({std::string("dynamic/") + name, name, dynamic});
    FilterSpec scaling = EngineSpec(seed, num_hashes);
    scaling.auto_scale = true;
    scaling.expected_keys = kNumKeys / 4;  // generations of 750, 1500, 3000
    cases.push_back({std::string("scaling/") + name, name, scaling});
  }
  return cases;
}

// The bit-identity acceptance gate: for every case, the engine's batched
// answers must equal the per-key loop.
TEST(BatchEngineTest, ContainsBatchMatchesPerKeyForEveryRegisteredFilter) {
  const auto universe = Universe(0xba7c4);
  for (uint32_t k : kHashCounts) {
    for (const auto& c : EngineCases(0xba7c4, k)) {
      SCOPED_TRACE(c.label + " k=" + std::to_string(k));
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(
          FilterRegistry::Global().Create(c.name, c.spec, &filter).ok());
      for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
      if (const auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get())) {
        ASSERT_GT(dynamic->pending_mutations(), 0u) << "delta not in use";
      }
      if (const auto* scaling =
              dynamic_cast<AutoScalingFilter*>(filter.get())) {
        ASSERT_GE(scaling->num_generations(), 2u);
      }
      std::vector<uint8_t> expected(universe.size());
      for (size_t i = 0; i < universe.size(); ++i) {
        expected[i] = filter->Contains(universe[i]) ? 1 : 0;
      }

      // Three group sizes: degenerate, odd, and larger than most groups.
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
        SCOPED_TRACE(batch_size);
        BatchQueryEngine engine({.batch_size = batch_size});
        std::vector<uint8_t> batched;
        engine.ContainsBatch(*filter, universe, &batched);
        ASSERT_EQ(batched, expected);
      }
    }
  }
}

// The view overloads exist to kill survivor-key copies; they must not be
// able to change a single answer. One sweep pins engine, sharded wrapper
// and multi-set index view paths against their string counterparts.
TEST(BatchEngineTest, StringViewBatchOverloadsMatchStringPaths) {
  const auto universe = Universe(0x71e11);
  std::vector<std::string_view> views(universe.begin(), universe.end());
  const auto& registry = FilterRegistry::Global();

  // Engine: every registered filter, both key containers.
  BatchQueryEngine engine({.batch_size = 32});
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, EngineSpec(0x71e11), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
    std::vector<uint8_t> by_string, by_view;
    engine.ContainsBatch(*filter, universe, &by_string);
    engine.ContainsBatch(*filter, views, &by_view);
    ASSERT_EQ(by_view, by_string);
  }

  // Sharded wrapper: the view overload partitions and scatters like the
  // string one.
  FilterSpec sharded_spec = EngineSpec(0x71e11);
  sharded_spec.shards = 4;
  std::unique_ptr<MembershipFilter> sharded;
  ASSERT_TRUE(
      registry.Create("split_block_shbf_m", sharded_spec, &sharded).ok());
  for (size_t i = 0; i < kNumKeys; ++i) sharded->Add(universe[i]);
  std::vector<uint8_t> by_string, by_view;
  sharded->ContainsBatch(universe, &by_string);
  sharded->ContainsBatch(views, &by_view);
  ASSERT_EQ(by_view, by_string);

  // Multi-set index: the view descent must produce the same bitmaps.
  SetCatalog catalog;
  for (int s = 0; s < 6; ++s) {
    std::unique_ptr<MembershipFilter> member;
    FilterSpec spec = FilterSpec::ForKeys(500, 64.0, 4);
    spec.max_count = 8;
    ASSERT_TRUE(registry.Create(s % 2 ? "bloom" : "shbf_m", spec, &member)
                    .ok());
    for (int k = 0; k < 500; ++k) {
      member->Add(universe[(s * 500 + k) % universe.size()]);
    }
    ASSERT_TRUE(
        catalog.AddSet("set-" + std::to_string(s), std::move(member)).ok());
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  std::vector<SetIdBitmap> string_maps, view_maps;
  index->WhichSetsBatch(universe, &string_maps);
  index->WhichSetsBatch(views, &view_maps);
  ASSERT_EQ(view_maps.size(), string_maps.size());
  for (size_t i = 0; i < string_maps.size(); ++i) {
    ASSERT_EQ(view_maps[i], string_maps[i]) << "key " << i;
  }
}

// The index of fast-path alternative `Impl`.
template <typename Impl>
size_t AlternativeIndex() {
  return BatchFastPath(std::in_place_type<const Impl*>).index();
}

// The pointer `fp` holds; null for monostate.
const void* HeldPointer(const BatchFastPath& fp) {
  return std::visit(
      [](auto impl) -> const void* {
        if constexpr (std::is_pointer_v<decltype(impl)>) {
          return impl;
        } else {
          return nullptr;
        }
      },
      fp);
}

TEST(BatchEngineTest, ProbeProtocolFiltersExposeTheirFastPath) {
  const auto& registry = FilterRegistry::Global();
  const struct {
    const char* name;
    size_t index;
  } expected[] = {
      {"shbf_m", AlternativeIndex<WindowedFilter>()},
      {"bloom", AlternativeIndex<WindowedFilter>()},
      {"shbf_g", AlternativeIndex<WindowedFilter>()},
      {"shbf_x", AlternativeIndex<ShbfX>()},
      {"shbf_a", AlternativeIndex<ShbfA>()},
      {"split_block_bloom", AlternativeIndex<SplitBlockFilter>()},
      {"split_block_shbf_m", AlternativeIndex<SplitBlockFilter>()},
      {"cuckoo", AlternativeIndex<CuckooFilter>()},
  };
  for (const auto& [name, index] : expected) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, EngineSpec(1), &filter).ok());
    const BatchFastPath fp = filter->batch_fast_path();
    EXPECT_EQ(fp.index(), index);
    EXPECT_NE(HeldPointer(fp), nullptr);
  }

  // A cuckoo adapter whose exact overfull side table holds keys answers
  // beyond its fingerprint table, so it must leave the probe path.
  const FilterSpec tiny = FilterSpec::ForKeys(16, 64.0, 4);
  std::unique_ptr<MembershipFilter> cuckoo;
  ASSERT_TRUE(registry.Create("cuckoo", tiny, &cuckoo).ok());
  const auto keys = Universe(0xf011);
  for (size_t i = 0; i < 200; ++i) cuckoo->Add(keys[i]);
  EXPECT_TRUE(
      std::holds_alternative<std::monostate>(cuckoo->batch_fast_path()));
  BatchQueryEngine engine;
  std::vector<uint8_t> batched;
  engine.ContainsBatch(*cuckoo, keys, &batched);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batched[i] != 0, cuckoo->Contains(keys[i])) << "key " << i;
  }
}

// The engine's two path counters.
struct PathCounts {
  uint64_t fast = 0;      ///< engine.fastpath_batches_total
  uint64_t fallback = 0;  ///< engine.virtual_batches_total
};

PathCounts ReadPathCounts() {
  auto& registry = obs::MetricsRegistry::Global();
  return {registry.GetCounter("engine.fastpath_batches_total")->Value(),
          registry.GetCounter("engine.virtual_batches_total")->Value()};
}

// What running `batch` adds to the path counters.
template <typename Fn>
PathCounts CountPaths(Fn&& batch) {
  const PathCounts before = ReadPathCounts();
  batch();
  const PathCounts after = ReadPathCounts();
  return {after.fast - before.fast, after.fallback - before.fallback};
}

// The k of the WindowedFilter, ShbfX or ShbfA behind `fp`.
uint32_t FastPathHashes(const BatchFastPath& fp) {
  return std::visit(
      [](auto impl) -> uint32_t {
        if constexpr (requires { impl->num_hashes(); }) {
          return impl->num_hashes();
        } else {
          return 0;
        }
      },
      fp);
}

// One batch of each form the filter serves must take the fast path iff
// `fast`, and answer like the per-key calls.
void ExpectBatchPaths(const MembershipFilter& filter,
                      const std::vector<std::string>& keys, bool fast) {
  const BatchQueryEngine engine;
  const uint64_t want_fast = fast ? 1 : 0;
  std::vector<uint8_t> contains;
  PathCounts paths =
      CountPaths([&] { engine.ContainsBatch(filter, keys, &contains); });
  EXPECT_EQ(paths.fast, want_fast) << "ContainsBatch";
  EXPECT_EQ(paths.fallback, 1 - want_fast) << "ContainsBatch";
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(contains[i] != 0, filter.Contains(keys[i])) << "key " << i;
  }
  if (const auto* multiplicity =
          dynamic_cast<const MultiplicityFilter*>(&filter)) {
    std::vector<uint64_t> counts;
    paths = CountPaths(
        [&] { engine.QueryCountBatch(*multiplicity, keys, &counts); });
    EXPECT_EQ(paths.fast, want_fast) << "QueryCountBatch";
    EXPECT_EQ(paths.fallback, 1 - want_fast) << "QueryCountBatch";
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(counts[i], multiplicity->QueryCount(keys[i])) << "key " << i;
    }
  }
  if (const auto* association =
          dynamic_cast<const AssociationFilter*>(&filter)) {
    std::vector<AssociationOutcome> outcomes;
    paths = CountPaths(
        [&] { engine.QueryBatch(*association, keys, &outcomes); });
    EXPECT_EQ(paths.fast, want_fast) << "QueryBatch";
    EXPECT_EQ(paths.fallback, 1 - want_fast) << "QueryBatch";
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(outcomes[i], association->Query(keys[i])) << "key " << i;
    }
  }
}

// Which path a batch takes is the engine's one decision: at the largest k
// a filter's probe holds, the probe answers; one k past it, the virtual
// interface does.
TEST(BatchEngineTest, FastPathRunsUpToTheProbeBoundAndNotPastIt) {
  if (!obs::kCompiledIn || !obs::Enabled()) GTEST_SKIP() << "no metrics";
  const auto universe = Universe(0xed9e);
  const auto& registry = FilterRegistry::Global();
  const struct {
    const char* name;
    uint32_t bound;  ///< the largest k the probe holds
    uint32_t past;   ///< the next k the registry builds
  } cases[] = {
      {"shbf_m", 64, 66},  // the registry rounds k up to even
      {"bloom", 64, 65},
      {"shbf_g", 63, 66},  // t = 2: k rounds up to a multiple of 3
      {"shbf_x", 64, 65},
      {"shbf_a", 64, 65},
  };
  for (const auto& c : cases) {
    for (const uint32_t k : {c.bound, c.past}) {
      SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k));
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(
          registry.Create(c.name, EngineSpec(0xed9e, k), &filter).ok());
      for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
      ASSERT_EQ(FastPathHashes(filter->batch_fast_path()), k);
      ExpectBatchPaths(*filter, universe, k == c.bound);
    }
  }

  // The split-block factories clamp k to their probe's bound, and a cuckoo
  // probe is three hashes: these take the probe at every k.
  for (const char* name :
       {"split_block_bloom", "split_block_shbf_m", "cuckoo"}) {
    for (const uint32_t k : {1u, 8u, 64u, 65u, 72u, 200u}) {
      SCOPED_TRACE(std::string(name) + " k=" + std::to_string(k));
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(registry.Create(name, EngineSpec(0xed9e, k), &filter).ok());
      for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
      ExpectBatchPaths(*filter, universe, true);
    }
  }
}

// DynamicFilter and AutoScalingFilter serve both ContainsBatch forms
// through the engine: a view batch reaches the inner filters' probe path
// exactly as a string batch does.
TEST(BatchEngineTest, WrappersSendViewBatchesThroughTheEngine) {
  if (!obs::kCompiledIn || !obs::Enabled()) GTEST_SKIP() << "no metrics";
  const auto universe = Universe(0x5e11);
  const std::vector<std::string_view> views(universe.begin(), universe.end());
  const BatchQueryEngine engine;
  for (const auto& c : EngineCases(0x5e11, 8)) {
    if (c.label == c.name) continue;  // not a wrapper
    SCOPED_TRACE(c.label);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(
        FilterRegistry::Global().Create(c.name, c.spec, &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
    std::vector<uint8_t> by_string, by_view;
    const PathCounts string_paths =
        CountPaths([&] { engine.ContainsBatch(*filter, universe, &by_string); });
    const PathCounts view_paths =
        CountPaths([&] { engine.ContainsBatch(*filter, views, &by_view); });
    EXPECT_GE(string_paths.fast, 1u);
    EXPECT_EQ(view_paths.fast, string_paths.fast);
    EXPECT_EQ(view_paths.fallback, string_paths.fallback);
    EXPECT_EQ(by_view, by_string);
  }
}

TEST(BatchEngineTest, QueryCountBatchMatchesPerKeyForMultiplicityFilters) {
  const auto universe = Universe(0xc0117);
  const auto& registry = FilterRegistry::Global();
  for (const auto& name :
       registry.Names(FilterFamily::kMultiplicity)) {
    SCOPED_TRACE(name);
    std::unique_ptr<MultiplicityFilter> filter;
    ASSERT_TRUE(
        registry.CreateMultiplicity(name, EngineSpec(0xc0117), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) {
      const uint32_t count = 1 + i % 8;  // multiplicities 1..8
      for (uint32_t c = 0; c < count; ++c) filter->Add(universe[i]);
    }
    BatchQueryEngine engine({.batch_size = 16});
    std::vector<uint64_t> batched;
    engine.QueryCountBatch(*filter, universe, &batched);
    ASSERT_EQ(batched.size(), universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(batched[i], filter->QueryCount(universe[i]))
          << "divergence at key " << i;
    }
  }
}

TEST(BatchEngineTest, QueryBatchMatchesPerKeyForAssociationFilters) {
  const auto universe = Universe(0xa550c);
  const auto& registry = FilterRegistry::Global();
  for (const auto& name : registry.Names(FilterFamily::kAssociation)) {
    SCOPED_TRACE(name);
    std::unique_ptr<AssociationFilter> filter;
    ASSERT_TRUE(
        registry.CreateAssociation(name, EngineSpec(0xa550c), &filter).ok());
    // Overlapping thirds: S1-only, intersection, S2-only.
    for (size_t i = 0; i < kNumKeys; ++i) {
      if (i % 3 != 2) filter->AddToS1(universe[i]);
      if (i % 3 != 0) filter->AddToS2(universe[i]);
    }
    BatchQueryEngine engine({.batch_size = 16});
    std::vector<AssociationOutcome> batched;
    engine.QueryBatch(*filter, universe, &batched);
    ASSERT_EQ(batched.size(), universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(batched[i], filter->Query(universe[i]))
          << "divergence at key " << i;
    }
  }
}

TEST(BatchEngineTest, ConcreteShbfXOverloadHonoursReportPolicy) {
  const auto universe = Universe(0x5bf01);
  ShbfX filter({.num_bits = 12 * kNumKeys, .num_hashes = 8, .max_count = 8});
  for (size_t i = 0; i < kNumKeys; ++i) {
    filter.InsertWithCount(universe[i], 1 + i % 8);
  }
  BatchQueryEngine engine({.batch_size = 32});
  for (auto policy : {MultiplicityReportPolicy::kLargest,
                      MultiplicityReportPolicy::kSmallest}) {
    std::vector<uint32_t> batched;
    engine.QueryCountBatch(filter, universe, policy, &batched);
    ASSERT_EQ(batched.size(), universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(batched[i], filter.QueryCount(universe[i], policy));
    }
  }
}

// Key counts around the default group of 16, into result buffers that are
// short, oversized or full of stale bytes: the engine must resize to the
// key count and overwrite every entry, whichever path answers.
TEST(BatchEngineTest, EmptyKeysAndStaleResultsAreHandled) {
  const auto universe = Universe(0x57a1e);
  const BatchQueryEngine engine;
  for (uint32_t k : kHashCounts) {
    for (const auto& c : EngineCases(0x57a1e, k)) {
      SCOPED_TRACE(c.label + " k=" + std::to_string(k));
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(
          FilterRegistry::Global().Create(c.name, c.spec, &filter).ok());
      // Even keys are members, odd keys absent.
      for (size_t i = 0; i < 34; i += 2) filter->Add(universe[i]);
      for (size_t n : {0, 1, 15, 16, 17, 33}) {
        SCOPED_TRACE(n);
        const std::vector<std::string> keys(universe.begin(),
                                            universe.begin() + n);
        const std::vector<std::string_view> views(keys.begin(), keys.end());
        std::vector<uint8_t> expected(n);
        for (size_t i = 0; i < n; ++i) {
          expected[i] = filter->Contains(keys[i]) ? 1 : 0;
          if (i % 2 == 0) {
            ASSERT_EQ(expected[i], 1) << "false negative";
          }
        }
        for (size_t stale_size : {size_t{0}, n / 2, n, n + 17}) {
          std::vector<uint8_t> results(stale_size, 0xaa);
          engine.ContainsBatch(*filter, keys, &results);
          ASSERT_EQ(results, expected) << "stale size " << stale_size;
          results.assign(stale_size, 0xaa);
          engine.ContainsBatch(*filter, views, &results);
          ASSERT_EQ(results, expected) << "stale size " << stale_size;
        }
      }
    }
  }
}

}  // namespace
}  // namespace shbf
