// Registry-driven serde round trips: for EVERY registered filter name,
// build → insert → Serialize → Deserialize must reproduce a filter that
// answers identically — membership answers for all entries, counts for
// multiplicity entries, outcomes for association entries.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "core/file_io.h"
#include "engine/auto_scaling_filter.h"
#include "core/rng.h"
#include "storage/filter_image.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

FilterSpec TestSpec() {
  FilterSpec spec;
  spec.num_cells = 30000;
  spec.num_hashes = 6;
  spec.expected_keys = 1000;
  spec.seed = 0xfeedf00d;
  return spec;
}

struct Workload {
  std::vector<std::string> members;  // inserted
  std::vector<std::string> probes;   // never inserted
};

Workload MakeWorkload() {
  TraceGenerator gen(0x5e44);
  auto keys = gen.DistinctFlowKeys(3000);
  Workload w;
  w.members.assign(keys.begin(), keys.begin() + 1000);
  w.probes.assign(keys.begin() + 1000, keys.end());
  return w;
}

/// Populates `filter` according to its family: association splits members
/// between S1/S2, multiplicity inserts every third key twice.
void Populate(const FilterRegistry::Entry& entry, MembershipFilter* filter,
              const std::vector<std::string>& members) {
  if (entry.family == FilterFamily::kAssociation) {
    auto* assoc = dynamic_cast<AssociationFilter*>(filter);
    ASSERT_NE(assoc, nullptr);
    for (size_t i = 0; i < members.size(); ++i) {
      if (i % 3 == 0) {
        assoc->AddToS1(members[i]);
      } else if (i % 3 == 1) {
        assoc->AddToS2(members[i]);
      } else {
        assoc->AddToS1(members[i]);
        assoc->AddToS2(members[i]);
      }
    }
    return;
  }
  for (size_t i = 0; i < members.size(); ++i) {
    filter->Add(members[i]);
    if (entry.family == FilterFamily::kMultiplicity && i % 3 == 0) {
      filter->Add(members[i]);
    }
  }
}

TEST(RegistrySerdeTest, EveryFilterRoundTripsThroughBytes) {
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    const auto* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr);

    std::unique_ptr<MembershipFilter> original;
    ASSERT_TRUE(registry.Create(name, TestSpec(), &original).ok());
    Populate(*entry, original.get(), w.members);

    std::string blob = FilterRegistry::Serialize(*original);
    ASSERT_FALSE(blob.empty());

    std::unique_ptr<MembershipFilter> restored;
    Status s = registry.Deserialize(blob, &restored);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->name(), name);

    // Identical membership answers on members (all true) and probes
    // (identical false-positive pattern, not merely a similar rate).
    for (const auto& key : w.members) {
      ASSERT_TRUE(restored->Contains(key)) << "false negative after reload";
    }
    for (const auto& key : w.probes) {
      ASSERT_EQ(original->Contains(key), restored->Contains(key))
          << "answer drift on probe key";
    }

    if (entry->family == FilterFamily::kMultiplicity) {
      auto* original_counts = dynamic_cast<MultiplicityFilter*>(original.get());
      auto* restored_counts = dynamic_cast<MultiplicityFilter*>(restored.get());
      ASSERT_NE(original_counts, nullptr);
      ASSERT_NE(restored_counts, nullptr);
      for (const auto& key : w.members) {
        ASSERT_EQ(original_counts->QueryCount(key),
                  restored_counts->QueryCount(key));
      }
    }

    if (entry->family == FilterFamily::kAssociation) {
      auto* original_assoc = dynamic_cast<AssociationFilter*>(original.get());
      auto* restored_assoc = dynamic_cast<AssociationFilter*>(restored.get());
      ASSERT_NE(original_assoc, nullptr);
      ASSERT_NE(restored_assoc, nullptr);
      for (const auto& key : w.members) {
        ASSERT_EQ(original_assoc->Query(key), restored_assoc->Query(key));
      }
    }
  }
}

TEST(RegistrySerdeTest, RestoredFilterKeepsAccepting) {
  // Add-after-reload must keep working for incremental filters.
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, TestSpec(), &filter).ok());
    for (size_t i = 0; i < 100; ++i) filter->Add(w.members[i]);

    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    for (size_t i = 100; i < 200; ++i) restored->Add(w.members[i]);
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(restored->Contains(w.members[i]))
          << "lost key " << i << " after reload+add";
    }
  }
}

TEST(RegistrySerdeTest, GarbageAndTruncationAreRejected) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> out;
  EXPECT_FALSE(registry.Deserialize("", &out).ok());
  EXPECT_FALSE(registry.Deserialize("not a filter blob", &out).ok());

  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", TestSpec(), &filter).ok());
  filter->Add("payload");
  std::string blob = FilterRegistry::Serialize(*filter);
  for (size_t cut : {blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(registry.Deserialize(blob.substr(0, cut), &out).ok())
        << "accepted a blob truncated to " << cut << " bytes";
  }
}

TEST(RegistrySerdeTest, NumElementsSurvivesRoundTrip) {
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, TestSpec(), &filter).ok());
    for (size_t i = 0; i < 100; ++i) filter->Add(w.members[i]);
    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    EXPECT_EQ(restored->num_elements(), filter->num_elements());
  }
}

TEST(RegistrySerdeTest, ReplayPayloadWithOversizedCountIsRejected) {
  // A counting_shbf_x table entry above max_count must yield a Status, not
  // a CHECK abort during replay.
  const auto& registry = FilterRegistry::Global();
  const auto* entry = registry.Find("counting_shbf_x");
  ASSERT_NE(entry, nullptr);
  FilterSpec spec = TestSpec();
  spec.max_count = 8;
  ByteWriter writer;
  spec_serde::WriteSpec(&writer, spec);
  writer.PutU64(1);  // one table entry
  writer.PutU32(3);
  writer.PutBytes("key", 3);
  writer.PutU64(100000);  // way past max_count
  std::unique_ptr<MembershipFilter> out;
  Status s = entry->deserializer(writer.Take(), &out);
  EXPECT_FALSE(s.ok());

  // A shbf_x multiset repeating one key past max_count is legal state (the
  // live adapter saturates at the cap); it must round-trip, not abort.
  const auto* lazy_entry = registry.Find("shbf_x");
  ASSERT_NE(lazy_entry, nullptr);
  ByteWriter lazy_writer;
  spec_serde::WriteSpec(&lazy_writer, spec);
  lazy_writer.PutU64(spec.max_count + 1);
  for (uint32_t i = 0; i <= spec.max_count; ++i) {
    lazy_writer.PutU32(3);
    lazy_writer.PutBytes("key", 3);
  }
  ASSERT_TRUE(lazy_entry->deserializer(lazy_writer.Take(), &out).ok());
  auto* counts = dynamic_cast<MultiplicityFilter*>(out.get());
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->QueryCount("key"), spec.max_count);
}

TEST(RegistrySerdeTest, MultiplicityAddSaturatesAtMaxCount) {
  // Adding one key past max_count through the uniform interface must
  // saturate (like every counting structure here), never abort.
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = TestSpec();
  spec.max_count = 4;
  for (const char* name : {"counting_shbf_x", "shbf_x"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MultiplicityFilter> filter;
    ASSERT_TRUE(registry.CreateMultiplicity(name, spec, &filter).ok());
    for (int i = 0; i < 20; ++i) filter->Add("hot-key");
    EXPECT_EQ(filter->QueryCount("hot-key"), 4u);
    // And the saturated state round-trips.
    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    auto* restored_counts = dynamic_cast<MultiplicityFilter*>(restored.get());
    ASSERT_NE(restored_counts, nullptr);
    EXPECT_EQ(restored_counts->QueryCount("hot-key"), 4u);
  }
}

TEST(RegistrySerdeTest, OverfullCuckooKeepsNoFalseNegativesAcrossReload) {
  // A cuckoo filter sized far below the key count must spill to the exact
  // side list rather than silently dropping keys, and the spill must
  // survive serialization.
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec;
  spec.num_cells = 96;  // 2 buckets × 4 slots of 12-bit fingerprints
  spec.num_hashes = 8;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("cuckoo", spec, &filter).ok());
  TraceGenerator gen(0xcafe);
  const auto keys = gen.DistinctFlowKeys(50);
  for (const auto& key : keys) filter->Add(key);
  for (const auto& key : keys) {
    ASSERT_TRUE(filter->Contains(key)) << "overfull cuckoo lost a key";
  }
  std::unique_ptr<MembershipFilter> restored;
  ASSERT_TRUE(
      registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
          .ok());
  for (const auto& key : keys) {
    ASSERT_TRUE(restored->Contains(key)) << "reload dropped a spilled key";
  }
}

TEST(RegistrySerdeTest, VersionMismatchNamesVersionsAndFilter) {
  // A pre-bump blob must fail loudly: the error names the found and the
  // supported envelope version AND the filter the blob carries, so an
  // operator staring at a failed `shbf_cli query` knows what to rebuild.
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", TestSpec(), &filter).ok());
  filter->Add("payload");
  std::string blob = FilterRegistry::Serialize(*filter);
  // Envelope layout: magic u32, version u8, name... — fake an old version.
  blob[4] = 2;
  std::unique_ptr<MembershipFilter> out;
  Status s = registry.Deserialize(blob, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version 2"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("supported: 4"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("\"shbf_m\""), std::string::npos)
      << s.ToString();

  // A version byte from the future fails the same way.
  blob[4] = 9;
  s = registry.Deserialize(blob, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version 9"), std::string::npos) << s.ToString();
}

TEST(RegistrySerdeTest, WrapperEnvelopesRoundTripThroughTheRegistry) {
  // Envelope-level check for every wrapper nesting Create can produce (the
  // behavioural deep-dives live in dynamic_filter_test.cc).
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  struct Case {
    uint32_t shards;
    size_t delta;
    bool auto_scale;
    const char* expected_name;
  };
  for (const Case& c : {Case{1, 64, false, "dynamic/shbf_m"},
                        Case{1, 0, true, "scaling/shbf_m"},
                        Case{1, 64, true, "dynamic/scaling/shbf_m"},
                        Case{3, 96, false, "sharded/dynamic/shbf_m"},
                        Case{3, 96, true, "sharded/dynamic/scaling/shbf_m"}}) {
    SCOPED_TRACE(c.expected_name);
    FilterSpec spec = TestSpec();
    spec.shards = c.shards;
    spec.delta_capacity = c.delta;
    spec.auto_scale = c.auto_scale;
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
    EXPECT_EQ(filter->name(), c.expected_name);
    for (const auto& key : w.members) filter->Add(key);

    std::unique_ptr<MembershipFilter> restored;
    Status s =
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(restored->name(), c.expected_name);
    EXPECT_EQ(restored->capabilities(), filter->capabilities());
    for (const auto& key : w.members) {
      ASSERT_TRUE(restored->Contains(key)) << "false negative after reload";
    }
    for (const auto& key : w.probes) {
      ASSERT_EQ(filter->Contains(key), restored->Contains(key))
          << "answer drift on probe key";
    }
  }
}

// --- on-disk bytes pinned across versions ------------------------------------

/// FNV-1a over `bytes`: a digest that shares no code with the hashes under
/// test.
uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// 20 distinct keys of every length 0–47 (one of length 0), so murmur3's
/// block loop and every tail length run.
std::vector<std::string> GoldenKeys() {
  Rng rng(0x901d);
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (size_t len = 0; len < 48; ++len) {
    for (int i = 0; i < 20; ++i) {
      std::string key = rng.NextBytes(len);
      if (seen.insert(key).second) keys.push_back(std::move(key));
    }
  }
  return keys;
}

struct GoldenCase {
  std::string name;
  uint32_t num_hashes;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  for (const auto& name : FilterRegistry::Global().Names()) {
    cases.push_back({name, 8});
  }
  // Past the probe bound: bloom and shbf_m take the per-key path, shbf_g
  // runs t = 2 over 24 groups, and the split-block factories clamp k to 64,
  // whose positions come from several Mix64 pool words.
  for (const char* name :
       {"bloom", "shbf_m", "shbf_g", "split_block_bloom", "split_block_shbf_m"}) {
    cases.push_back({name, 72});
  }
  return cases;
}

std::unique_ptr<MembershipFilter> BuildGolden(
    const GoldenCase& c, const std::vector<std::string>& keys) {
  FilterSpec spec = TestSpec();
  spec.num_hashes = c.num_hashes;
  std::unique_ptr<MembershipFilter> filter;
  const auto& registry = FilterRegistry::Global();
  Status s = registry.Create(c.name, spec, &filter);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (filter != nullptr) Populate(*registry.Find(c.name), filter.get(), keys);
  return filter;
}

TEST(RegistrySerdeTest, SerializedBytesMatchPinnedDigests) {
  // Hash values, bit positions and the envelope are a file format: a file
  // written by an earlier build must open and answer identically. These
  // digests of Serialize() were recorded from the build that wrote the
  // hashes byte by byte; any change to a hash or a layout moves them.
  const std::map<std::string, uint64_t> expected = {
      {"bloom/k8", 0x02e7f5f23305fba6ull},
      {"cm/k8", 0x4e5e429a0f036e5bull},
      {"counting_bloom/k8", 0xef1b3e523f675027ull},
      {"counting_shbf_a/k8", 0x2c5e645c2ea9bfbcull},
      {"counting_shbf_m/k8", 0x31cc539dcb57181dull},
      {"counting_shbf_x/k8", 0xc47460969d697b08ull},
      {"cuckoo/k8", 0x94ca799f2cb8a2a8ull},
      {"dynamic_count/k8", 0xe73c447ee8e93e30ull},
      {"ibf/k8", 0xb712f0ca58a8283dull},
      {"km_bloom/k8", 0x05b38c899d760e9eull},
      {"one_mem_bf/k8", 0x7109146a24fb6ac8ull},
      {"scm/k8", 0x81a6eab61cc9e870ull},
      {"shbf_a/k8", 0x7ab5ff006ac8b5e7ull},
      {"shbf_g/k8", 0xe2e4f931b7ec1ffeull},
      {"shbf_m/k8", 0xdbb25ba5379d8215ull},
      {"shbf_x/k8", 0xa52d14b83fd332a1ull},
      {"spectral/k8", 0xca84edd97718a0e3ull},
      {"split_block_bloom/k8", 0x152f222932bcf8bcull},
      {"split_block_shbf_m/k8", 0x636d0dd7538c5628ull},
      {"bloom/k72", 0x48423ec83707cc19ull},
      {"shbf_m/k72", 0xec84e1ad2fa03a4cull},
      {"shbf_g/k72", 0x4ea9de9f817687ccull},
      {"split_block_bloom/k72", 0xca77104b08a810f5ull},
      {"split_block_shbf_m/k72", 0xcaf7476a27301cf8ull},
  };
  const auto keys = GoldenKeys();
  for (const GoldenCase& c : GoldenCases()) {
    const std::string label = c.name + "/k" + std::to_string(c.num_hashes);
    SCOPED_TRACE(label);
    auto filter = BuildGolden(c, keys);
    ASSERT_NE(filter, nullptr);
    const auto it = expected.find(label);
    ASSERT_NE(it, expected.end()) << "no pinned digest";
    const uint64_t digest = Digest(FilterRegistry::Serialize(*filter));
    EXPECT_EQ(digest, it->second) << std::hex << "0x" << digest;
  }
}

TEST(RegistrySerdeTest, MappedImagesMatchPinnedDigests) {
  // The same pin for SaveMapped images, which also covers the header
  // page's murmur3 checksum.
  const std::map<std::string, uint64_t> expected = {
      {"bloom", 0x7624d3a59d58938eull},
      {"shbf_m", 0x6248d107a42fd609ull},
      {"split_block_bloom", 0x12568e4019abf054ull},
      {"split_block_shbf_m", 0x1d2377e98e1a273cull},
  };
  const auto keys = GoldenKeys();
  const std::string path = ::testing::TempDir() + "/golden_image.shbi";
  for (const char* name :
       {"bloom", "shbf_m", "split_block_bloom", "split_block_shbf_m"}) {
    SCOPED_TRACE(name);
    auto filter = BuildGolden({name, 8}, keys);
    ASSERT_NE(filter, nullptr);
    Status s = FilterRegistry::Global().SaveMapped(*filter, path);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::string image;
    s = ReadFileToString(path, &image);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const uint64_t digest = Digest(image);
    EXPECT_EQ(digest, expected.at(name)) << std::hex << "0x" << digest;
  }
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, EnvelopeNamesUnknownFilter) {
  // An envelope naming an unregistered filter must fail cleanly, not crash.
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("bloom", TestSpec(), &filter).ok());
  std::string blob = FilterRegistry::Serialize(*filter);
  // Rewrite the embedded name "bloom" → "blooz".
  size_t pos = blob.find("bloom");
  ASSERT_NE(pos, std::string::npos);
  blob[pos + 4] = 'z';
  std::unique_ptr<MembershipFilter> out;
  Status s = registry.Deserialize(blob, &out);
  EXPECT_FALSE(s.ok());
}

/// Forges a registry envelope carrying `name` over `payload` (the layout
/// Serialize writes: SHBR magic, version, length-prefixed name, payload).
std::string ForgeEnvelope(std::string_view name, std::string_view payload,
                          uint8_t version = 4) {
  ByteWriter writer;
  writer.PutU32(0x52424853);  // "SHBR"
  writer.PutU8(version);
  writer.PutU32(static_cast<uint32_t>(name.size()));
  writer.PutBytes(name.data(), name.size());
  writer.PutBytes(payload.data(), payload.size());
  return writer.Take();
}

TEST(RegistrySerdeTest, CorruptWrapperPrefixBlobsReturnStatusNeverCrash) {
  // Wrapper envelopes dispatch structurally on their name prefix; hostile
  // names and garbage payloads must all come back as Status.
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> out;

  // Unknown base behind every wrapper prefix (and nested ones).
  for (const char* name :
       {"sharded/nope", "dynamic/nope", "scaling/nope",
        "sharded/dynamic/scaling/nope", "dynamic/sharded/nope"}) {
    Status s = registry.Deserialize(ForgeEnvelope(name, "junkpayload"), &out);
    EXPECT_FALSE(s.ok()) << name;
    EXPECT_EQ(s.code(), Status::Code::kNotFound) << name;
    EXPECT_NE(s.ToString().find("nope"), std::string::npos)
        << "error must name the unknown base: " << s.ToString();
  }

  // A bare wrapper prefix with no base at all ("sharded/" strips to "").
  EXPECT_FALSE(
      registry.Deserialize(ForgeEnvelope("sharded/", "junk"), &out).ok());

  // Known base, garbage wrapper payload: the structural deserializers must
  // reject it (count bombs, truncated nested envelopes) without crashing.
  for (const char* name :
       {"sharded/shbf_m", "dynamic/shbf_m", "scaling/shbf_m",
        "sharded/dynamic/shbf_m"}) {
    EXPECT_FALSE(
        registry.Deserialize(ForgeEnvelope(name, "garbage"), &out).ok())
        << name;
    EXPECT_FALSE(registry.Deserialize(ForgeEnvelope(name, ""), &out).ok())
        << name;
    // A forged huge count/length prefix must not allocate its way to OOM.
    ByteWriter bomb;
    bomb.PutU32(0xffffffffu);
    bomb.PutU64(0xffffffffffffffffull);
    EXPECT_FALSE(
        registry.Deserialize(ForgeEnvelope(name, bomb.Take()), &out).ok())
        << name;
  }
}

TEST(RegistrySerdeTest, RetiredFilterNamesPointAtTheirReplacement) {
  // blocked_bloom and blocked_shbf_m left the registry; every way of
  // reaching one by name (a spec, a bare or wrapped envelope, a catalog
  // member) must come back NotFound and say what to rebuild as.
  const auto& registry = FilterRegistry::Global();
  const struct {
    const char* retired;
    const char* replacement;
    const char* same_length_live;  // a registered name of equal length
  } cases[] = {{"blocked_bloom", "split_block_bloom", "dynamic_count"},
               {"blocked_shbf_m", "split_block_shbf_m", "counting_bloom"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.retired);
    const std::string hint = "rebuild as " + std::string(c.replacement);
    const auto expect_hint = [&](const Status& s) {
      EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
      EXPECT_NE(s.message().find(c.retired), std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find(hint), std::string::npos) << s.ToString();
    };

    std::unique_ptr<MembershipFilter> out;
    FilterSpec spec = TestSpec();
    expect_hint(registry.Create(c.retired, spec, &out));
    spec.shards = 2;
    expect_hint(registry.Create(c.retired, spec, &out));

    // A bare envelope, then a sharded one whose single shard is that bare
    // envelope, both built by hand at the current version.
    const std::string bare = ForgeEnvelope(c.retired, "payload", 5);
    expect_hint(registry.Deserialize(bare, &out));
    ByteWriter sharded;
    sharded.PutU32(16);  // batch_size
    sharded.PutU32(1);   // shard count
    sharded.PutU64(bare.size());
    sharded.PutBytes(bare.data(), bare.size());
    expect_hint(registry.Deserialize(
        ForgeEnvelope("sharded/" + std::string(c.retired), sharded.Take(), 5),
        &out));
    for (const char* prefix : {"dynamic/", "scaling/", "sharded/dynamic/"}) {
      expect_hint(registry.Deserialize(
          ForgeEnvelope(prefix + std::string(c.retired), "payload", 5),
          &out));
    }

    // A catalog member: a real catalog whose one member's envelope name is
    // rewritten in place to the retired name.
    std::unique_ptr<MembershipFilter> member;
    ASSERT_TRUE(registry.Create(c.same_length_live, TestSpec(), &member).ok());
    SetCatalog catalog;
    ASSERT_TRUE(catalog.AddSet("only", std::move(member)).ok());
    std::string blob = catalog.Serialize();
    const size_t pos = blob.find(c.same_length_live);
    ASSERT_NE(pos, std::string::npos);
    blob.replace(pos, std::strlen(c.retired), c.retired);
    SetCatalog restored;
    expect_hint(SetCatalog::Deserialize(blob, registry, &restored));
  }
}

TEST(RegistrySerdeTest, ReservedSpecSlotIsWrittenAs512AndIgnoredOnRead) {
  // The v4 spec slot once held the retired blocked filters' block size
  // (any power of two in [64, 512]). A v5 blob whose slot holds 64 must
  // load and answer exactly like a fresh build from the same spec. A
  // plain sharded/shbf_m payload carries no spec record, so the shards
  // here are dynamic wrappers, which store theirs.
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  FilterSpec spec = TestSpec();
  spec.shards = 2;
  spec.delta_capacity = 64;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
  ASSERT_EQ(filter->name(), "sharded/dynamic/shbf_m");
  for (const auto& key : w.members) filter->Add(key);
  std::string blob = FilterRegistry::Serialize(*filter);
  ASSERT_EQ(blob[4], 5);

  // Each shard's dynamic wrapper stores its base spec: half the cells and
  // keys, no wrapper knobs.
  FilterSpec shard_spec = TestSpec();
  shard_spec.num_cells /= 2;
  shard_spec.expected_keys /= 2;
  ByteWriter record_writer;
  spec_serde::WriteSpec(&record_writer, shard_spec);
  const std::string record = record_writer.Take();
  // U64 + 7xU32 + U64 + 2xU32 + U64 + 2xU8 + U64 precede the slot.
  constexpr size_t kSlotOffset = 70;
  size_t patched = 0;
  for (size_t pos = blob.find(record); pos != std::string::npos;
       pos = blob.find(record, pos + record.size())) {
    ByteReader slot(std::string_view(blob).substr(pos + kSlotOffset, 4));
    uint32_t value = 0;
    ASSERT_TRUE(slot.GetU32(&value));
    EXPECT_EQ(value, 512u);
    ByteWriter sixty_four;
    sixty_four.PutU32(64);
    blob.replace(pos + kSlotOffset, 4, sixty_four.Take());
    ++patched;
  }
  ASSERT_EQ(patched, spec.shards);

  std::unique_ptr<MembershipFilter> restored;
  Status s = registry.Deserialize(blob, &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored->name(), "sharded/dynamic/shbf_m");
  std::unique_ptr<MembershipFilter> fresh;
  ASSERT_TRUE(registry.Create("shbf_m", spec, &fresh).ok());
  for (const auto& key : w.members) fresh->Add(key);
  for (const auto& key : w.members) {
    ASSERT_TRUE(restored->Contains(key)) << "false negative after reload";
  }
  for (const auto& key : w.probes) {
    ASSERT_EQ(restored->Contains(key), fresh->Contains(key))
        << "answer drift on probe key";
  }
}

TEST(RegistrySerdeTest, TruncatedWrapperBlobsAreRejectedAtEveryLength) {
  // Every proper prefix of a real nested wrapper blob (sharded over
  // dynamic shards — the deepest envelope nesting Create produces) must
  // fail with a Status, never crash; same for the nested multiset catalog
  // envelope that embeds such blobs (set_catalog_test covers its own
  // layout; here the nested filter blob inside it is the one truncated).
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = TestSpec();
  spec.shards = 2;
  spec.delta_capacity = 32;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
  for (int i = 0; i < 200; ++i) filter->Add("key-" + std::to_string(i));
  const std::string blob = FilterRegistry::Serialize(*filter);
  ASSERT_EQ(filter->name(), "sharded/dynamic/shbf_m");

  std::unique_ptr<MembershipFilter> out;
  for (size_t len = 0; len < blob.size(); ++len) {
    Status s = registry.Deserialize(std::string_view(blob).substr(0, len),
                                    &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << len << " bytes was accepted";
  }
  // The intact blob still round-trips (the sweep didn't test a broken
  // serializer).
  ASSERT_TRUE(registry.Deserialize(blob, &out).ok());
  EXPECT_EQ(out->name(), "sharded/dynamic/shbf_m");
}

// ---------------------------------------------------------------------
// Mapped-image rejection cases: every failure mode an operator will
// actually hit (a stale build, a mismatched geometry record, flipped
// payload bits) must come back as a Status naming the file AND the field —
// the difference between a fixable incident and a mystery.
// ---------------------------------------------------------------------

/// Saves a populated shbf_m image and returns its raw bytes + path.
std::string SaveMappedImage(const std::string& path) {
  FilterSpec spec = TestSpec();
  std::unique_ptr<MembershipFilter> filter;
  EXPECT_TRUE(FilterRegistry::Global().Create("shbf_m", spec, &filter).ok());
  for (int i = 0; i < 500; ++i) filter->Add("key-" + std::to_string(i));
  EXPECT_TRUE(FilterRegistry::Global().SaveMapped(*filter, path, 1).ok());
  std::string image;
  EXPECT_TRUE(ReadFileToString(path, &image).ok());
  return image;
}

TEST(RegistrySerdeTest, MappedImageStaleVersionNamesFileAndField) {
  const std::string path =
      ::testing::TempDir() + "/serde_stale_version.shbi";
  std::string image = SaveMappedImage(path);
  // The version field is the u32 at offset 4 (after the magic); a future
  // build's image must be refused BY VERSION, before the checksum verdict,
  // so the message says "upgrade" rather than "corrupt".
  image[4] = static_cast<char>(storage::kImageVersion + 9);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("field version"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, MappedImageGeometryMismatchNamesFileAndField) {
  const std::string path = ::testing::TempDir() + "/serde_geometry.shbi";
  std::string image = SaveMappedImage(path);

  // Decode, lie about the geometry, re-encode (recomputing the header
  // checksum — this is a *consistent* header describing the wrong filter),
  // and splice the forged page back in. Only the opener's cross-checks can
  // catch this class of mismatch.
  storage::ImageHeader header;
  ASSERT_TRUE(storage::DecodeImageHeader(
                  reinterpret_cast<const uint8_t*>(image.data()),
                  image.size(), &header)
                  .ok());
  header.geometry.num_bits += 64;  // no longer matches array_total_bits
  const std::string forged = storage::EncodeImageHeader(header);
  ASSERT_EQ(forged.size(), storage::kImagePageBytes);
  image.replace(0, forged.size(), forged);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("field array_total_bits"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, MappedImageChecksumFlipNamesFileAndField) {
  const std::string path = ::testing::TempDir() + "/serde_checksum.shbi";
  std::string image = SaveMappedImage(path);
  // Flip one payload bit. The default open doesn't read the payload at
  // all; the verifying open must name the region checksum.
  image[storage::kImagePageBytes + 1234] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(
      path, &out, storage::OpenOptions{.verify_payload = true});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();

  // Same image, header-only open: succeeds by design (the documented
  // trade-off behind the O(1) open).
  EXPECT_TRUE(FilterRegistry::Global().OpenMapped(path, &out).ok());
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, MappedImageUnknownFilterNameIsNamed) {
  const std::string path = ::testing::TempDir() + "/serde_unknown.shbi";
  std::string image = SaveMappedImage(path);
  storage::ImageHeader header;
  ASSERT_TRUE(storage::DecodeImageHeader(
                  reinterpret_cast<const uint8_t*>(image.data()),
                  image.size(), &header)
                  .ok());
  header.filter_name = "filter_from_the_future";
  const std::string forged = storage::EncodeImageHeader(header);
  image.replace(0, forged.size(), forged);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("filter_from_the_future"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("field name"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

/// `blob` with the `width`-byte little-endian field at `offset` set to
/// `value`.
std::string Patched(std::string blob, size_t offset, uint64_t value,
                    size_t width) {
  for (size_t i = 0; i < width; ++i) {
    blob[offset + i] = static_cast<char>(value >> (8 * i));
  }
  return blob;
}

/// Peak resident set of this process, in KiB.
long PeakRssKib() {
  struct rusage usage {};
  EXPECT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss;
}

TEST(RegistrySerdeTest, PatchedGeometryIsRefusedBeforeAllocating) {
  // A file names its own geometry. A header claiming m = 2^40 bits must not
  // make Deserialize allocate the 128 GiB array before it sees that the
  // payload is a few hundred bytes, and k = 2^32 - 16 must not allocate a
  // 32 GiB seed table: both are refused as InvalidArgument first.
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = TestSpec();
  spec.num_cells = 2048;
  for (const char* name : {"bloom", "shbf_m", "shbf_g", "split_block_bloom",
                           "split_block_shbf_m"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, spec, &filter).ok());
    for (int i = 0; i < 100; ++i) filter->Add("key-" + std::to_string(i));
    const std::string envelope = FilterRegistry::Serialize(*filter);
    // The envelope ends with the adapter payload: an 8-byte add counter,
    // then the native blob, whose 6-byte header is followed by m (u64) and
    // k (u32).
    const size_t native = envelope.size() - filter->ToBytes().size() + 8;
    std::vector<std::string> patched = {
        Patched(envelope, native + 6, uint64_t{1} << 40, 8)};
    if (std::string_view(name).substr(0, 11) != "split_block") {
      // The split-block layouts bound k by 64 already.
      patched.push_back(Patched(envelope, native + 14, 0xfffffff0u, 4));
    }
    for (const std::string& blob : patched) {
      const long before = PeakRssKib();
      std::unique_ptr<MembershipFilter> out;
      Status s = registry.Deserialize(blob, &out);
      EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
      EXPECT_LT(PeakRssKib() - before, 64 * 1024) << "peak RSS rose";
    }
  }

  // A mapped image header is held to the same k <= m bound.
  const std::string path = ::testing::TempDir() + "/serde_seed_table.shbi";
  std::string image = SaveMappedImage(path);
  storage::ImageHeader header;
  ASSERT_TRUE(storage::DecodeImageHeader(
                  reinterpret_cast<const uint8_t*>(image.data()),
                  image.size(), &header)
                  .ok());
  header.geometry.num_hashes = 0xfffffff0u;
  const std::string forged = storage::EncodeImageHeader(header);
  image.replace(0, forged.size(), forged);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());
  const long before = PeakRssKib();
  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_LT(PeakRssKib() - before, 64 * 1024) << "peak RSS rose";
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, ShbfGShiftsOutOfRangeAreRefusedNotDivided) {
  // shbf_g rounds k up to a multiple of t + 1; t = 2^32 - 1 made that a
  // division by zero. The factory refuses t outside [1, 56] first.
  const auto& registry = FilterRegistry::Global();
  for (const uint32_t t : {57u, 0xffffffffu}) {
    SCOPED_TRACE(t);
    FilterSpec spec = TestSpec();
    spec.num_shifts = t;
    std::unique_ptr<MembershipFilter> filter;
    EXPECT_EQ(registry.Create("shbf_g", spec, &filter).code(),
              Status::Code::kInvalidArgument);
  }

  // A file reaches the factory too: a scaling/shbf_g envelope stores its
  // base spec and opens each new generation from it. With t patched, the
  // envelope still loads (its generation blobs are intact), and the Add
  // that would open generation 1 overfills generation 0 instead.
  FilterSpec spec = TestSpec();
  spec.expected_keys = 200;
  spec.auto_scale = true;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_g", spec, &filter).ok());
  ASSERT_EQ(filter->name(), "scaling/shbf_g");
  const Workload w = MakeWorkload();
  for (size_t i = 0; i < 100; ++i) filter->Add(w.members[i]);
  std::string blob = FilterRegistry::Serialize(*filter);
  // Envelope header (magic, version, name) and the payload's base name
  // precede the spec record, whose m, k, counter_bits and max_count
  // precede t.
  const size_t shifts_at = 4 + 1 + 4 + filter->name().size() + 4 +
                           std::string_view("shbf_g").size() + 8 + 3 * 4;
  ASSERT_EQ(static_cast<uint8_t>(blob[shifts_at]), spec.num_shifts);
  blob = Patched(blob, shifts_at, 0xffffffffu, 4);
  std::unique_ptr<MembershipFilter> restored;
  Status s = registry.Deserialize(blob, &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (size_t i = 100; i < 500; ++i) restored->Add(w.members[i]);
  EXPECT_EQ(
      dynamic_cast<const AutoScalingFilter&>(*restored).num_generations(), 1u);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(restored->Contains(w.members[i])) << "false negative at " << i;
  }
}

}  // namespace
}  // namespace shbf
