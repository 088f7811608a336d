// Mapped-image differential suite: for every filter the registry can lay
// out flat, a filter opened off its mmap image must answer bit-identically
// to the heap original — per key, through BatchQueryEngine, and from
// concurrently forked reader processes sharing one image.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "api/filter_registry.h"
#include "engine/batch_query_engine.h"
#include "storage/filter_image.h"
#include "storage/mapped_filter.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

FilterSpec TestSpec() {
  FilterSpec spec;
  spec.num_cells = 40000;
  spec.num_hashes = 6;
  spec.expected_keys = 1200;
  spec.seed = 0xfeedf00d;
  return spec;
}

struct Workload {
  std::vector<std::string> members;  // inserted
  std::vector<std::string> probes;   // never inserted
  std::vector<std::string> all;      // members + probes interleaved
};

Workload MakeWorkload() {
  TraceGenerator gen(0x3a99);
  auto keys = gen.DistinctFlowKeys(4000);
  Workload w;
  w.members.assign(keys.begin(), keys.begin() + 1200);
  w.probes.assign(keys.begin() + 1200, keys.end());
  w.all = keys;
  return w;
}

std::vector<std::string> MappedNames() {
  std::vector<std::string> names;
  const auto& registry = FilterRegistry::Global();
  for (const auto& name : registry.Names()) {
    if (registry.SupportsMapped(name)) names.push_back(name);
  }
  return names;
}

std::string ImagePath(const std::string& name, const char* tag) {
  return ::testing::TempDir() + "/mapped_" + tag + "_" + name + ".shbi";
}

/// Builds and populates the heap original for `name`.
std::unique_ptr<MembershipFilter> BuildOriginal(const std::string& name,
                                                const Workload& w) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = FilterRegistry::Global().Create(name, TestSpec(), &filter);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (filter == nullptr) return nullptr;
  for (const auto& key : w.members) filter->Add(key);
  return filter;
}

TEST(MappedFilterTest, RegistryAdvertisesTheFourFlatLayouts) {
  const auto names = MappedNames();
  EXPECT_EQ(names.size(), 4u);
  for (const char* expected :
       {"bloom", "shbf_m", "split_block_bloom", "split_block_shbf_m"}) {
    EXPECT_TRUE(FilterRegistry::Global().SupportsMapped(expected)) << expected;
  }
  EXPECT_FALSE(FilterRegistry::Global().SupportsMapped("cuckoo"));
}

TEST(MappedFilterTest, MappedAnswersMatchHeapPerKeyAndBatched) {
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  BatchQueryEngine engine;

  for (const auto& name : MappedNames()) {
    SCOPED_TRACE(name);
    auto original = BuildOriginal(name, w);
    ASSERT_NE(original, nullptr);

    const std::string path = ImagePath(name, "diff");
    ASSERT_TRUE(registry.SaveMapped(*original, path, /*generation=*/7).ok());

    for (bool verify_payload : {false, true}) {
      SCOPED_TRACE(verify_payload ? "verify_payload" : "header_only");
      std::unique_ptr<MembershipFilter> mapped;
      Status s = registry.OpenMapped(
          path, &mapped, storage::OpenOptions{.verify_payload =
                                                  verify_payload});
      ASSERT_TRUE(s.ok()) << s.ToString();

      auto* as_mapped = dynamic_cast<storage::MappedFilter*>(mapped.get());
      ASSERT_NE(as_mapped, nullptr);
      EXPECT_EQ(as_mapped->generation(), 7u);
      EXPECT_EQ(mapped->name(), name);
      EXPECT_EQ(mapped->num_elements(), original->num_elements());

      // The mapped view must be bit-identical to the heap twin, per key
      // and batched.
      for (const auto& key : w.all) {
        ASSERT_EQ(mapped->Contains(key), original->Contains(key)) << key;
      }
      std::vector<uint8_t> want, got;
      engine.ContainsBatch(*original, w.all, &want);
      engine.ContainsBatch(*mapped, w.all, &got);
      EXPECT_EQ(got, want);

      // No false negatives off the mapping, ever.
      for (const auto& key : w.members) EXPECT_TRUE(mapped->Contains(key));
    }
    std::remove(path.c_str());
  }
}

TEST(MappedFilterTest, EngineFastPathKindSurvivesTheMapping) {
  // The engine dispatches on batch_fast_path(): the mapped wrapper must
  // forward the inner filter's kind so mapped queries take the same
  // non-virtual probe protocol as heap queries.
  const Workload w = MakeWorkload();
  for (const auto& name : MappedNames()) {
    SCOPED_TRACE(name);
    auto original = BuildOriginal(name, w);
    ASSERT_NE(original, nullptr);
    const std::string path = ImagePath(name, "fastpath");
    ASSERT_TRUE(FilterRegistry::Global().SaveMapped(*original, path).ok());
    std::unique_ptr<MembershipFilter> mapped;
    ASSERT_TRUE(FilterRegistry::Global().OpenMapped(path, &mapped).ok());
    EXPECT_EQ(mapped->batch_fast_path().index(),
              original->batch_fast_path().index());
    EXPECT_FALSE(
        std::holds_alternative<std::monostate>(mapped->batch_fast_path()));
    std::remove(path.c_str());
  }
}

TEST(MappedFilterTest, MappedFilterIsReadOnlyButReserializes) {
  const Workload w = MakeWorkload();
  auto original = BuildOriginal("shbf_m", w);
  ASSERT_NE(original, nullptr);
  const std::string path = ImagePath("shbf_m", "readonly");
  ASSERT_TRUE(FilterRegistry::Global().SaveMapped(*original, path).ok());
  std::unique_ptr<MembershipFilter> mapped;
  ASSERT_TRUE(FilterRegistry::Global().OpenMapped(path, &mapped).ok());

  EXPECT_EQ(mapped->capabilities(), 0u);
  EXPECT_FALSE(mapped->IncrementalAdd());

  // ToBytes off the mapping must produce the same envelope as the heap
  // original — SNAPSHOT of a mapped serve yields a normal heap blob.
  EXPECT_EQ(FilterRegistry::Serialize(*mapped),
            FilterRegistry::Serialize(*original));

  // And SaveMapped of a mapped filter round-trips (unwraps transparently).
  const std::string resaved = ImagePath("shbf_m", "resaved");
  ASSERT_TRUE(
      FilterRegistry::Global().SaveMapped(*mapped, resaved, 99).ok());
  std::unique_ptr<MembershipFilter> reopened;
  ASSERT_TRUE(FilterRegistry::Global()
                  .OpenMapped(resaved, &reopened,
                              storage::OpenOptions{.verify_payload = true})
                  .ok());
  for (const auto& key : w.all) {
    ASSERT_EQ(reopened->Contains(key), original->Contains(key));
  }
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(MappedFilterTest, WrappedFiltersHaveNoFlatLayout) {
  // Engine wrappers (sharded/dynamic/scaling) carry state a flat image
  // cannot express; SaveMapped must refuse them with a Status, not write
  // a bogus image.
  FilterSpec spec = TestSpec();
  spec.shards = 4;
  std::unique_ptr<MembershipFilter> sharded;
  ASSERT_TRUE(FilterRegistry::Global().Create("bloom", spec, &sharded).ok());
  const std::string path = ImagePath("bloom", "wrapped");
  Status s = FilterRegistry::Global().SaveMapped(*sharded, path);
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------
// Multi-process readers: N forked children map ONE image read-only and
// must all see answers identical to the parent's heap original, while the
// parent queries its own mapping concurrently. Exercises the kernel
// sharing one physical copy and proves the open path has no hidden
// mutable state. A child exits nonzero on the first mismatch.
// ---------------------------------------------------------------------

TEST(MappedFilterTest, ForkedReadersShareOneImageWithIdenticalAnswers) {
  const Workload w = MakeWorkload();
  auto original = BuildOriginal("split_block_shbf_m", w);
  ASSERT_NE(original, nullptr);
  const std::string path = ImagePath("split_block_shbf_m", "fork");
  ASSERT_TRUE(FilterRegistry::Global().SaveMapped(*original, path).ok());

  // Expected answers, computed before forking so every child inherits the
  // same reference via copy-on-write.
  std::vector<uint8_t> expected(w.all.size());
  for (size_t i = 0; i < w.all.size(); ++i) {
    expected[i] = original->Contains(w.all[i]) ? 1 : 0;
  }

  constexpr int kReaders = 4;
  std::vector<pid_t> children;
  for (int child = 0; child < kReaders; ++child) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: open its own mapping and compare every answer. _exit, not
      // exit — never run the parent's gtest teardown twice.
      std::unique_ptr<MembershipFilter> mapped;
      Status s = FilterRegistry::Global().OpenMapped(
          path, &mapped, storage::OpenOptions{.verify_payload = true});
      if (!s.ok()) _exit(10);
      BatchQueryEngine engine;
      std::vector<uint8_t> got;
      engine.ContainsBatch(*mapped, w.all, &got);
      for (size_t i = 0; i < w.all.size(); ++i) {
        if (got[i] != expected[i]) _exit(11);
        if (mapped->Contains(w.all[i]) != (expected[i] != 0)) _exit(12);
      }
      _exit(0);
    }
    children.push_back(pid);
  }

  // Parent queries its own mapping concurrently with the children.
  std::unique_ptr<MembershipFilter> mapped;
  ASSERT_TRUE(FilterRegistry::Global().OpenMapped(path, &mapped).ok());
  for (size_t i = 0; i < w.all.size(); ++i) {
    ASSERT_EQ(mapped->Contains(w.all[i]), expected[i] != 0);
  }

  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Replacing the image on disk (atomic rename inside SaveMapped) must not
  // disturb the already-open mapping: the old pages stay alive until the
  // last unmap. This is the no-TOCTOU property the open contract promises.
  auto refreshed = BuildOriginal("split_block_shbf_m", w);
  for (const auto& key : w.probes) refreshed->Add(key);  // different bits
  ASSERT_TRUE(FilterRegistry::Global().SaveMapped(*refreshed, path, 2).ok());
  for (size_t i = 0; i < w.all.size(); ++i) {
    ASSERT_EQ(mapped->Contains(w.all[i]), expected[i] != 0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace shbf
