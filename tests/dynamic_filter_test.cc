// DynamicFilter + AutoScalingFilter: the mutation pipeline's engine layer.
// Covers epoch folding (bit-identical to a scratch-built base at every
// boundary), removes (pending-cancel and post-fold), the auto-scaling
// generation chain, wrapper composition through FilterRegistry::Create
// (dynamic / scaling / sharded in every combination the spec can ask for),
// and full nested serde round trips including mid-epoch pending state.

#include "engine/dynamic_filter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/filter_registry.h"
#include "core/rng.h"
#include "engine/auto_scaling_filter.h"
#include "engine/batch_query_engine.h"
#include "engine/sharded_filter.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

FilterSpec BaseSpec() {
  FilterSpec spec;
  spec.num_cells = 60000;
  spec.num_hashes = 6;
  spec.expected_keys = 4000;
  spec.max_count = 16;
  spec.seed = 0xd1a2f11e;
  return spec;
}

std::vector<std::string> TestKeys(size_t count, uint64_t seed = 0xd14a) {
  TraceGenerator gen(seed);
  return gen.DistinctFlowKeys(count);
}

TEST(DynamicFilterTest, WrapsWhenSpecAsksForDelta) {
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 64;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_x", spec, &filter).ok());
  EXPECT_EQ(filter->name(), "dynamic/shbf_x");
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);
  EXPECT_TRUE(dynamic->IncrementalAdd());
  EXPECT_EQ(dynamic->delta_capacity(), 64u);
  EXPECT_EQ(dynamic->active().name(), "shbf_x");
}

TEST(DynamicFilterTest, InterleavedAddQueryHasNoFalseNegatives) {
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 128;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_x", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);

  const auto keys = TestKeys(2000);
  for (size_t i = 0; i < keys.size(); ++i) {
    filter->Add(keys[i]);
    // Query after every add — the exact interleave the naive lazy adapter
    // pays a rebuild for; here it must be cheap AND correct at all times.
    ASSERT_TRUE(filter->Contains(keys[i])) << "false negative at " << i;
    if (i % 97 == 0 && i > 0) {
      ASSERT_TRUE(filter->Contains(keys[i / 2])) << "lost an older key";
    }
  }
  // 2000 adds at delta 128 → several epochs must have completed.
  EXPECT_GE(dynamic->epoch(), 10u);
  EXPECT_EQ(filter->num_elements(), keys.size());
}

TEST(DynamicFilterTest, EpochBoundaryAnswersBitIdenticalToScratchBuild) {
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 256;
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> dynamic_filter;
  ASSERT_TRUE(registry.Create("shbf_x", spec, &dynamic_filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(dynamic_filter.get());
  ASSERT_NE(dynamic, nullptr);

  FilterSpec plain = BaseSpec();
  std::unique_ptr<MembershipFilter> reference;
  ASSERT_TRUE(registry.Create("shbf_x", plain, &reference).ok());

  const auto keys = TestKeys(3000);
  for (size_t i = 0; i < 2000; ++i) {
    dynamic_filter->Add(keys[i]);
    reference->Add(keys[i]);
  }
  dynamic->Flush();
  ASSERT_EQ(dynamic->pending_mutations(), 0u);
  // Same multiset, same spec, same seed → the folded active filter must be
  // the same bit array, so every answer (false positives included) agrees.
  for (const auto& key : keys) {
    ASSERT_EQ(dynamic_filter->Contains(key), reference->Contains(key));
  }
}

TEST(DynamicFilterTest, RemoveCancelsPendingAddExactly) {
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 1024;  // large: everything stays pending
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_x", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);

  filter->Add("transient");
  EXPECT_EQ(filter->num_elements(), 1u);
  ASSERT_TRUE(filter->Remove("transient").ok());
  EXPECT_EQ(filter->num_elements(), 0u);
  EXPECT_EQ(dynamic->pending_mutations(), 0u);
  // Fold and confirm the cancelled key never reached the active side.
  dynamic->Flush();
  EXPECT_EQ(dynamic->active().num_elements(), 0u);
}

TEST(DynamicFilterTest, CancelledAddKeepsAllQueryPathsConsistent) {
  // A cancelled pending add leaves residual bits in the delta until the
  // fold. Scalar Contains, the filter's ContainsBatch and the engine
  // (which consults batch_fast_path) must all answer identically anyway —
  // the engine-vs-per-key bit-identity invariant the whole repo enforces.
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 1024;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_x", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);

  auto keys = TestKeys(300);
  for (const auto& key : keys) filter->Add(key);
  ASSERT_TRUE(filter->Remove(keys[0]).ok());  // cancel: residual delta bits
  ASSERT_TRUE(filter->Remove(keys[1]).ok());

  const auto probes = TestKeys(500, 0xabcd);
  std::vector<std::string> all = keys;
  all.insert(all.end(), probes.begin(), probes.end());
  BatchQueryEngine engine;
  std::vector<uint8_t> batched;
  engine.ContainsBatch(*filter, all, &batched);
  std::vector<uint8_t> direct;
  filter->ContainsBatch(all, &direct);
  for (size_t i = 0; i < all.size(); ++i) {
    const bool scalar = filter->Contains(all[i]);
    ASSERT_EQ(scalar, batched[i] != 0) << "engine diverges at " << i;
    ASSERT_EQ(scalar, direct[i] != 0) << "ContainsBatch diverges at " << i;
  }

  // After a flush the residual bits are gone: the filter answers exactly
  // like a scratch-built reference over the surviving multiset.
  dynamic->Flush();
  std::unique_ptr<MembershipFilter> reference;
  ASSERT_TRUE(
      FilterRegistry::Global().Create("shbf_x", BaseSpec(), &reference).ok());
  for (size_t i = 2; i < keys.size(); ++i) reference->Add(keys[i]);
  for (const auto& key : all) {
    ASSERT_EQ(filter->Contains(key), reference->Contains(key));
  }
}

TEST(DynamicFilterTest, AddAfterQueuedRemoveOfNeverAddedKeyIsNotLost) {
  // Remove gates on the ACTIVE side, so a remove of a never-added key is
  // rejected and a subsequent Add of that key must land normally — the
  // add-swallowed-by-bogus-queued-remove false-negative chain.
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 64;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(
      FilterRegistry::Global().Create("counting_shbf_m", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);

  const auto keys = TestKeys(200);
  for (size_t i = 0; i < 100; ++i) filter->Add(keys[i]);
  for (size_t i = 100; i < 200; ++i) {
    Status s = filter->Remove(keys[i]);  // never added
    if (s.ok()) continue;  // legitimate active-side false positive
    EXPECT_EQ(s.code(), Status::Code::kNotFound);
    filter->Add(keys[i]);
    ASSERT_TRUE(filter->Contains(keys[i]));
  }
  dynamic->Flush();
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(filter->Contains(keys[i]));
}

TEST(DynamicFilterTest, TransientAddRemovePairsStillFoldAndBoundFpr) {
  // A workload of short-lived keys (add, then remove while still pending)
  // keeps pending_mutations() near zero, but every cancelled add spends
  // delta bits — those must count toward the epoch budget, or the delta
  // saturates and FPR climbs toward 100% with no fold ever firing.
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 64;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_x", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);

  const auto transients = TestKeys(800);
  for (const auto& key : transients) {
    filter->Add(key);
    ASSERT_TRUE(filter->Remove(key).ok());
  }
  EXPECT_GE(dynamic->epoch(), 5u) << "cancelled adds never folded";
  const auto probes = TestKeys(2000, 0xfff1);
  size_t false_positives = 0;
  for (const auto& key : probes) false_positives += filter->Contains(key);
  EXPECT_LT(false_positives, probes.size() / 10)
      << "residual delta bits accumulated without bound";
}

TEST(DynamicFilterTest, SerdePreservesResidualCancelledBits) {
  // Cancelled pending adds leave bits in the delta until the fold; a
  // round-tripped filter must reproduce them — answers identical, residual
  // false positives included.
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 1024;
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_x", spec, &filter).ok());

  const auto keys = TestKeys(200);
  for (const auto& key : keys) filter->Add(key);
  for (size_t i = 0; i < 50; ++i) ASSERT_TRUE(filter->Remove(keys[i]).ok());

  std::unique_ptr<MembershipFilter> restored;
  Status s =
      registry.Deserialize(FilterRegistry::Serialize(*filter), &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto* restored_dynamic = dynamic_cast<DynamicFilter*>(restored.get());
  ASSERT_NE(restored_dynamic, nullptr);
  EXPECT_EQ(restored_dynamic->cancelled_adds(), 50u);
  // The cancelled keys themselves are the acid test: their delta bits are
  // residual noise, and both sides must agree on them.
  for (const auto& key : keys) {
    ASSERT_EQ(filter->Contains(key), restored->Contains(key));
  }
  const auto probes = TestKeys(1000, 0xfff2);
  for (const auto& key : probes) {
    ASSERT_EQ(filter->Contains(key), restored->Contains(key))
        << "answer drift on probe key";
  }
}

TEST(DynamicFilterTest, DeserializeRejectsCountBombInPendingLogs) {
  // ReadKeyCountList bounds entry counts, not count VALUES; the replay
  // loop must reject totals past delta_capacity before spinning.
  FilterSpec spec = BaseSpec();
  std::unique_ptr<MembershipFilter> base;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_m", spec, &base).ok());
  const std::string active_blob = FilterRegistry::Serialize(*base);
  ByteWriter writer;
  writer.PutU64(512);  // delta_capacity
  writer.PutU64(0);    // epoch
  spec_serde::WriteSpec(&writer, spec);
  serde::WriteKeyCountList(&writer, {{"key", uint64_t{1} << 40}});  // bomb
  serde::WriteKeyCountList(&writer, {});
  serde::WriteKeyCountList(&writer, {});
  writer.PutU64(active_blob.size());
  writer.PutBytes(active_blob.data(), active_blob.size());
  std::unique_ptr<MembershipFilter> out;
  Status s = DynamicFilter::Deserialize("dynamic/shbf_m", writer.Take(),
                                        FilterRegistry::Global(), &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("exceed delta_capacity"), std::string::npos)
      << s.ToString();
}

TEST(DynamicFilterTest, DeserializeRejectsAbsurdDeltaCapacity) {
  // The delta's geometry derives from delta_capacity; a crafted blob must
  // not be able to demand an exabyte allocation.
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = FilterSpec::kMaxDeltaCapacity + 1;
  std::unique_ptr<MembershipFilter> filter;
  EXPECT_FALSE(
      FilterRegistry::Global().Create("shbf_m", spec, &filter).ok());

  spec.delta_capacity = 64;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_m", spec, &filter).ok());
  std::string blob = FilterRegistry::Serialize(*filter);
  // Payload starts right after the envelope (magic u32, version u8, name
  // length u32, name); its first field is delta_capacity as u64.
  const size_t payload_at = 4 + 1 + 4 + filter->name().size();
  ASSERT_LE(payload_at + 8, blob.size());
  for (size_t i = 0; i < 8; ++i) blob[payload_at + i] = '\xff';
  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().Deserialize(blob, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("delta_capacity"), std::string::npos)
      << s.ToString();
}

TEST(DynamicFilterTest, RemoveAfterFoldReachesActiveSide) {
  // counting_shbf_m supports Remove, so the dynamic wrapper advertises and
  // forwards it even for keys already folded into the active filter.
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 8;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(
      FilterRegistry::Global().Create("counting_shbf_m", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);
  EXPECT_TRUE(dynamic->capabilities() & kRemove);

  const auto keys = TestKeys(64);
  for (const auto& key : keys) filter->Add(key);
  ASSERT_GE(dynamic->epoch(), 1u) << "folds should have happened";

  Status s = filter->Remove(keys[0]);  // folded long ago
  ASSERT_TRUE(s.ok()) << s.ToString();
  dynamic->Flush();
  // After the fold the queued remove took effect on the counting base.
  EXPECT_EQ(filter->num_elements(), keys.size() - 1);
  // The rest must still answer (no-false-negative for survivors).
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_TRUE(filter->Contains(keys[i]));
  }
}

TEST(DynamicFilterTest, RemoveOnNonRemovableActiveFailsCleanly) {
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 4;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("bloom", spec, &filter).ok());
  EXPECT_FALSE(filter->capabilities() & kRemove);

  // A still-pending add can always be cancelled (it never touched the
  // active bloom)...
  filter->Add("pending");
  EXPECT_TRUE(filter->Remove("pending").ok());
  // ...but once folded, the bloom base cannot delete.
  for (int i = 0; i < 8; ++i) filter->Add("folded-" + std::to_string(i));
  Status s = filter->Remove("folded-0");
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
  // And removing a definitely-absent key reports NotFound... unless the
  // active side cannot remove at all, which dominates.
  EXPECT_FALSE(filter->Remove("never-added-xyzzy").ok());
}

TEST(DynamicFilterTest, SerdeRoundTripsMidEpochPendingState) {
  FilterSpec spec = BaseSpec();
  spec.delta_capacity = 512;
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_x", spec, &filter).ok());
  auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
  ASSERT_NE(dynamic, nullptr);

  const auto keys = TestKeys(700);  // 512 fold + 188 pending
  for (const auto& key : keys) filter->Add(key);
  ASSERT_GT(dynamic->pending_mutations(), 0u) << "test needs pending state";
  const uint64_t epoch_before = dynamic->epoch();

  std::string blob = FilterRegistry::Serialize(*filter);
  std::unique_ptr<MembershipFilter> restored;
  Status s = registry.Deserialize(blob, &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored->name(), "dynamic/shbf_x");
  auto* restored_dynamic = dynamic_cast<DynamicFilter*>(restored.get());
  ASSERT_NE(restored_dynamic, nullptr);
  EXPECT_EQ(restored_dynamic->epoch(), epoch_before);
  EXPECT_EQ(restored_dynamic->pending_mutations(),
            dynamic->pending_mutations());
  EXPECT_EQ(restored->num_elements(), filter->num_elements());

  const auto probes = TestKeys(2000, 0x9999);
  for (const auto& key : keys) {
    ASSERT_TRUE(restored->Contains(key)) << "false negative after reload";
  }
  for (const auto& key : probes) {
    ASSERT_EQ(filter->Contains(key), restored->Contains(key))
        << "answer drift on probe key";
  }
  // The restored wrapper keeps folding correctly.
  for (const auto& key : probes) restored->Add(key);
  for (const auto& key : probes) ASSERT_TRUE(restored->Contains(key));
}

TEST(AutoScalingFilterTest, GrowsGenerationsPastCapacity) {
  FilterSpec spec = BaseSpec();
  spec.expected_keys = 500;  // generation 0 budget
  spec.num_cells = 6000;
  spec.auto_scale = true;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(FilterRegistry::Global().Create("shbf_m", spec, &filter).ok());
  EXPECT_EQ(filter->name(), "scaling/shbf_m");
  auto* scaling = dynamic_cast<AutoScalingFilter*>(filter.get());
  ASSERT_NE(scaling, nullptr);
  EXPECT_EQ(scaling->num_generations(), 1u);

  // 4000 keys into a 500-key budget: 500 + 1000 + 2000 seals three
  // generations, the fourth absorbs the rest.
  const auto keys = TestKeys(4000);
  const size_t memory_before = filter->memory_bytes();
  for (const auto& key : keys) filter->Add(key);
  EXPECT_EQ(scaling->num_generations(), 4u);
  EXPECT_GT(filter->memory_bytes(), memory_before);
  EXPECT_EQ(filter->num_elements(), keys.size());
  for (const auto& key : keys) {
    ASSERT_TRUE(filter->Contains(key)) << "false negative across generations";
  }

  // FPR stays sane even at 8x the generation-0 design point (fixed
  // bits-per-key per generation is the whole point).
  const auto probes = TestKeys(4000, 0xab5e);
  size_t false_positives = 0;
  for (const auto& key : probes) false_positives += filter->Contains(key);
  EXPECT_LT(false_positives, probes.size() / 10);
}

TEST(AutoScalingFilterTest, RemoveSearchesGenerationsNewestFirst) {
  FilterSpec spec = BaseSpec();
  spec.expected_keys = 200;
  spec.num_cells = 2400;
  spec.auto_scale = true;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(
      FilterRegistry::Global().Create("counting_bloom", spec, &filter).ok());
  auto* scaling = dynamic_cast<AutoScalingFilter*>(filter.get());
  ASSERT_NE(scaling, nullptr);
  EXPECT_TRUE(filter->capabilities() & kRemove);

  const auto keys = TestKeys(600);
  for (const auto& key : keys) filter->Add(key);
  ASSERT_GT(scaling->num_generations(), 1u);
  // Remove keys from both the oldest and the newest generation.
  ASSERT_TRUE(filter->Remove(keys.front()).ok());
  ASSERT_TRUE(filter->Remove(keys.back()).ok());
  EXPECT_EQ(filter->num_elements(), keys.size() - 2);
  for (size_t i = 1; i + 1 < keys.size(); ++i) {
    ASSERT_TRUE(filter->Contains(keys[i])) << "survivor lost at " << i;
  }
}

TEST(AutoScalingFilterTest, SerdeRoundTripsGenerationChain) {
  FilterSpec spec = BaseSpec();
  spec.expected_keys = 300;
  spec.num_cells = 3600;
  spec.auto_scale = true;
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
  const auto keys = TestKeys(1500);
  for (const auto& key : keys) filter->Add(key);
  auto* scaling = dynamic_cast<AutoScalingFilter*>(filter.get());
  ASSERT_NE(scaling, nullptr);
  ASSERT_GT(scaling->num_generations(), 2u);

  std::unique_ptr<MembershipFilter> restored;
  Status s =
      registry.Deserialize(FilterRegistry::Serialize(*filter), &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored->name(), "scaling/shbf_m");
  auto* restored_scaling = dynamic_cast<AutoScalingFilter*>(restored.get());
  ASSERT_NE(restored_scaling, nullptr);
  EXPECT_EQ(restored_scaling->num_generations(), scaling->num_generations());

  const auto probes = TestKeys(2000, 0x7777);
  for (const auto& key : keys) ASSERT_TRUE(restored->Contains(key));
  for (const auto& key : probes) {
    ASSERT_EQ(filter->Contains(key), restored->Contains(key));
  }
  // The restored chain keeps scaling: push it past the next seal point.
  for (const auto& key : probes) restored->Add(key);
  EXPECT_GT(restored_scaling->num_generations(), scaling->num_generations());
  for (const auto& key : probes) ASSERT_TRUE(restored->Contains(key));
}

TEST(WrapperCompositionTest, DynamicOverScalingOverBase) {
  FilterSpec spec = BaseSpec();
  spec.expected_keys = 400;
  spec.num_cells = 4800;
  spec.auto_scale = true;
  spec.delta_capacity = 128;
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
  EXPECT_EQ(filter->name(), "dynamic/scaling/shbf_m");

  const auto keys = TestKeys(2000);
  for (const auto& key : keys) {
    filter->Add(key);
  }
  for (const auto& key : keys) ASSERT_TRUE(filter->Contains(key));

  // Full nested serde: dynamic → scaling → per-generation shbf_m blobs.
  std::unique_ptr<MembershipFilter> restored;
  Status s =
      registry.Deserialize(FilterRegistry::Serialize(*filter), &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored->name(), "dynamic/scaling/shbf_m");
  for (const auto& key : keys) ASSERT_TRUE(restored->Contains(key));
  const auto probes = TestKeys(1000, 0x3333);
  for (const auto& key : probes) {
    ASSERT_EQ(filter->Contains(key), restored->Contains(key));
  }
}

TEST(WrapperCompositionTest, ShardedShardsGetTheDynamicWrapper) {
  FilterSpec spec = BaseSpec();
  spec.shards = 4;
  spec.delta_capacity = 256;  // 64 per shard
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_x", spec, &filter).ok());
  EXPECT_EQ(filter->name(), "sharded/dynamic/shbf_x");
  auto* sharded = dynamic_cast<ShardedMembershipFilter*>(filter.get());
  ASSERT_NE(sharded, nullptr);
  // Dynamic shards make the ensemble incremental → shared-lock reads.
  EXPECT_TRUE(filter->IncrementalAdd());

  const auto keys = TestKeys(3000);
  for (size_t i = 0; i < keys.size(); ++i) {
    filter->Add(keys[i]);
    if (i % 7 == 0) {
      // Interleaved queries against the sharded dynamic ensemble.
      ASSERT_TRUE(filter->Contains(keys[i]));
    }
  }
  for (const auto& key : keys) ASSERT_TRUE(filter->Contains(key));
  std::vector<uint8_t> results;
  filter->ContainsBatch(keys, &results);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(results[i]) << "batched false negative at " << i;
  }

  // Nested serde: sharded → per-shard dynamic → shbf_x replay blobs.
  std::unique_ptr<MembershipFilter> restored;
  Status s =
      registry.Deserialize(FilterRegistry::Serialize(*filter), &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored->name(), "sharded/dynamic/shbf_x");
  for (const auto& key : keys) ASSERT_TRUE(restored->Contains(key));
}

TEST(WrapperCompositionTest, ShardedDynamicRemoveRoutesToOwningShard) {
  FilterSpec spec = BaseSpec();
  spec.shards = 4;
  spec.delta_capacity = 64;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(
      FilterRegistry::Global().Create("counting_shbf_m", spec, &filter).ok());
  EXPECT_TRUE(filter->capabilities() & kRemove);
  EXPECT_FALSE(filter->capabilities() & kMergeable);

  const auto keys = TestKeys(800);
  for (const auto& key : keys) filter->Add(key);
  for (size_t i = 0; i < 100; ++i) {
    Status s = filter->Remove(keys[i]);
    ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
  }
  for (size_t i = 100; i < keys.size(); ++i) {
    ASSERT_TRUE(filter->Contains(keys[i])) << "survivor lost at " << i;
  }
}

TEST(WrapperCompositionTest, StripWrapperPrefixesPeelsAllLayers) {
  EXPECT_EQ(StripWrapperPrefixes("shbf_m"), "shbf_m");
  EXPECT_EQ(StripWrapperPrefixes("dynamic/shbf_x"), "shbf_x");
  EXPECT_EQ(StripWrapperPrefixes("scaling/bloom"), "bloom");
  EXPECT_EQ(StripWrapperPrefixes("sharded/dynamic/scaling/cuckoo"),
            "cuckoo");
}

TEST(MergeTest, MergeableFiltersUnionTheirKeySets) {
  const auto& registry = FilterRegistry::Global();
  for (const char* name : {"bloom", "shbf_m", "shbf_g"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> left;
    std::unique_ptr<MembershipFilter> right;
    ASSERT_TRUE(registry.Create(name, BaseSpec(), &left).ok());
    ASSERT_TRUE(registry.Create(name, BaseSpec(), &right).ok());
    EXPECT_TRUE(left->capabilities() & kMergeable);

    const auto keys = TestKeys(2000);
    for (size_t i = 0; i < 1000; ++i) left->Add(keys[i]);
    for (size_t i = 1000; i < 2000; ++i) right->Add(keys[i]);
    Status s = left->MergeFrom(*right);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (const auto& key : keys) {
      ASSERT_TRUE(left->Contains(key)) << "merge lost a key";
    }

    // Geometry mismatches must be rejected, not silently corrupt.
    FilterSpec other_spec = BaseSpec();
    other_spec.num_cells *= 2;
    std::unique_ptr<MembershipFilter> mismatched;
    ASSERT_TRUE(registry.Create(name, other_spec, &mismatched).ok());
    EXPECT_FALSE(left->MergeFrom(*mismatched).ok());
    // And merging across schemes is an error.
    std::unique_ptr<MembershipFilter> alien;
    ASSERT_TRUE(registry
                    .Create(std::string(name) == "bloom" ? "shbf_m" : "bloom",
                            BaseSpec(), &alien)
                    .ok());
    EXPECT_FALSE(left->MergeFrom(*alien).ok());
  }

  // shbf_g at t = 1 lays its bits out exactly like shbf_m, but a merge only
  // joins two instances of one registry name.
  FilterSpec t1 = BaseSpec();
  t1.num_shifts = 1;
  std::unique_ptr<MembershipFilter> shbf_g;
  std::unique_ptr<MembershipFilter> shbf_m;
  ASSERT_TRUE(registry.Create("shbf_g", t1, &shbf_g).ok());
  ASSERT_TRUE(registry.Create("shbf_m", t1, &shbf_m).ok());
  EXPECT_FALSE(shbf_g->MergeFrom(*shbf_m).ok());
  EXPECT_FALSE(shbf_m->MergeFrom(*shbf_g).ok());
}

}  // namespace
}  // namespace shbf
