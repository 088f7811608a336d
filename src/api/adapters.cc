// Adapters binding every concrete filter to the unified SetQueryFilter
// interfaces, plus the built-in FilterRegistry entries.
//
// Each adapter is a thin wrapper: it owns the concrete filter by value,
// forwards the hot calls, and adds only what the interface needs (a name, an
// add counter, spec-derived construction, envelope-free serde). Adapters
// that would differ only in the wrapped type are one class template. The
// concrete classes stay available for inlined hot paths; these adapters
// exist so registry-driven drivers (tests, benches, the CLI, the server)
// can treat all nineteen schemes as one family.
//
// Factory derivations from FilterSpec are documented entry by entry in
// RegisterBuiltinFilters at the bottom of this file.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/cuckoo_adapter.h"
#include "api/filter_registry.h"
#include "api/filter_spec.h"
#include "api/set_query_filter.h"
#include "baselines/split_block_bloom_filter.h"
#include "baselines/bloom_filter.h"
#include "baselines/cm_sketch.h"
#include "baselines/counting_bloom_filter.h"
#include "baselines/cuckoo_filter.h"
#include "baselines/dynamic_count_filter.h"
#include "baselines/ibf.h"
#include "baselines/km_bloom_filter.h"
#include "baselines/one_mem_bf.h"
#include "baselines/spectral_bloom_filter.h"
#include "core/serde.h"
#include "shbf/split_block_shbf_membership.h"
#include "shbf/counting_shbf_membership.h"
#include "shbf/generalized_shbf.h"
#include "shbf/scm_sketch.h"
#include "shbf/shbf_association.h"
#include "shbf/shbf_membership.h"
#include "shbf/shbf_multiplicity.h"

namespace shbf {
namespace {

// ------------------------------------------------------------------------
// Shared adapter plumbing
// ------------------------------------------------------------------------

/// Name + add-counter + by-value impl shared by most adapters. `Base` is the
/// interface being implemented, `Impl` the wrapped concrete filter.
template <typename Base, typename Impl>
class AdapterCore : public Base {
 public:
  AdapterCore(std::string name, Impl impl)
      : name_(std::move(name)), impl_(std::move(impl)) {}

  std::string_view name() const override { return name_; }
  size_t num_elements() const override { return adds_; }
  void Clear() override {
    impl_.Clear();
    adds_ = 0;
  }

  /// Adapter payload: the add counter (which only the adapter tracks)
  /// followed by the concrete filter's own versioned blob.
  std::string ToBytes() const override {
    const std::string native = impl_.ToBytes();
    ByteWriter writer;
    writer.PutU64(adds_);
    writer.PutBytes(native.data(), native.size());
    return writer.Take();
  }

  /// Direct access to the wrapped filter (inlined-hot-path escape hatch).
  const Impl& impl() const { return impl_; }

  /// Restores the interface-level add counter after deserialization.
  void RestoreAddCount(size_t adds) { adds_ = adds; }

 protected:
  std::string name_;
  Impl impl_;
  size_t adds_ = 0;
};

/// The concrete filter type an adapter wraps.
template <typename Adapter>
using WrappedType =
    std::remove_cvref_t<decltype(std::declval<const Adapter&>().impl())>;

/// Deserializer for AdapterCore adapters: reads the add counter, then hands
/// the rest of the payload to the concrete filter's FromBytes.
template <typename Adapter>
FilterRegistry::Deserializer NativeDeserializer(std::string name) {
  return [name](std::string_view payload,
                std::unique_ptr<MembershipFilter>* out) -> Status {
    ByteReader reader(payload);
    uint64_t adds = 0;
    if (!reader.GetU64(&adds)) {
      return Status::InvalidArgument(name + ": truncated adapter payload");
    }
    std::optional<WrappedType<Adapter>> impl;
    Status s = WrappedType<Adapter>::FromBytes(payload.substr(8), &impl);
    if (!s.ok()) return s;
    auto adapter = std::make_unique<Adapter>(name, std::move(*impl));
    adapter->RestoreAddCount(adds);
    *out = std::move(adapter);
    return Status::Ok();
  };
}

// Length-prefixed key-list / key-count serde now lives in core/serde.h
// (serde::WriteKeyList & friends) so the dynamic-filter wrappers in
// src/engine/ share the exact wire format with the replay adapters here.
using serde::ReadKeyCountList;
using serde::ReadKeyList;
using serde::WriteKeyCountList;
using serde::WriteKeyList;

// ------------------------------------------------------------------------
// Membership adapters
// ------------------------------------------------------------------------

/// bloom, shbf_m, shbf_g and the two split-block filters: the two cores'
/// names, which the batch engine probes natively and whose Add only sets
/// bits, so a same-name, same-geometry sibling merges in by OR.
template <typename Impl>
class ProbeAdapter : public AdapterCore<MembershipFilter, Impl> {
  using Core = AdapterCore<MembershipFilter, Impl>;
  using Core::adds_;
  using Core::impl_;
  using Core::name_;

 public:
  using Core::Core;
  void Add(std::string_view key) override {
    impl_.Add(key);
    ++adds_;
  }
  bool Contains(std::string_view key) const override {
    return impl_.Contains(key);
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    return impl_.ContainsWithStats(key, stats);
  }
  BatchFastPath batch_fast_path() const override { return &impl_; }
  uint32_t capabilities() const override {
    return kIncrementalAdd | kMergeable;
  }
  Status MergeFrom(const MembershipFilter& other) override {
    const auto* peer = dynamic_cast<const ProbeAdapter*>(&other);
    if (peer == nullptr) {
      return Status::FailedPrecondition(
          name_ + ": MergeFrom needs another " + name_ + " instance");
    }
    Status s = impl_.MergeFrom(peer->impl_);
    if (s.ok()) adds_ += peer->adds_;
    return s;
  }
  size_t memory_bytes() const override {
    return impl_.bits().allocated_bytes();
  }
};

using BloomAdapter = ProbeAdapter<BloomFilter>;
using ShbfMAdapter = ProbeAdapter<ShbfM>;
using ShbfGAdapter = ProbeAdapter<GeneralizedShbfM>;
using SplitBlockBloomAdapter = ProbeAdapter<SplitBlockBloomFilter>;
using SplitBlockShbfMAdapter = ProbeAdapter<SplitBlockShbfM>;

/// km_bloom, one_mem_bf: bit arrays the engine answers per key.
template <typename Impl>
class BitArrayAdapter : public AdapterCore<MembershipFilter, Impl> {
  using Core = AdapterCore<MembershipFilter, Impl>;
  using Core::adds_;
  using Core::impl_;

 public:
  using Core::Core;
  void Add(std::string_view key) override {
    impl_.Add(key);
    ++adds_;
  }
  bool Contains(std::string_view key) const override {
    return impl_.Contains(key);
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    return impl_.ContainsWithStats(key, stats);
  }
  size_t memory_bytes() const override { return impl_.num_bits() / 8; }
};

class CountingBloomAdapter
    : public AdapterCore<MembershipFilter, CountingBloomFilter> {
 public:
  using AdapterCore::AdapterCore;
  void Add(std::string_view key) override {
    impl_.Insert(key);
    ++adds_;
  }
  bool Contains(std::string_view key) const override {
    return impl_.Contains(key);
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    return impl_.ContainsWithStats(key, stats);
  }
  Status Remove(std::string_view key) override {
    // Contains(key) == false proves the key absent (no false negatives), so
    // the decrement below can never underflow the concrete class's CHECK.
    if (!impl_.Contains(key)) {
      return Status::NotFound(name_ + ": Remove of an absent key");
    }
    impl_.Delete(key);
    if (adds_ > 0) --adds_;
    return Status::Ok();
  }
  uint32_t capabilities() const override { return kIncrementalAdd | kRemove; }
  size_t memory_bytes() const override {
    return impl_.counters().num_counters() *
           impl_.counters().bits_per_counter() / 8;
  }
};

class CountingShbfMAdapter
    : public AdapterCore<MembershipFilter, CountingShbfM> {
 public:
  using AdapterCore::AdapterCore;
  void Add(std::string_view key) override {
    impl_.Insert(key);
    ++adds_;
  }
  bool Contains(std::string_view key) const override {
    return impl_.Contains(key);
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    return impl_.ContainsWithStats(key, stats);
  }
  Status Remove(std::string_view key) override {
    // B is the bitwise projection of C, so Contains(key) == true implies
    // every pair counter of `key` is nonzero — Delete cannot underflow.
    if (!impl_.Contains(key)) {
      return Status::NotFound(name_ + ": Remove of an absent key");
    }
    impl_.Delete(key);
    if (adds_ > 0) --adds_;
    return Status::Ok();
  }
  uint32_t capabilities() const override { return kIncrementalAdd | kRemove; }
  size_t memory_bytes() const override {
    return impl_.num_bits() / 8 + impl_.counters().num_counters() *
                                      impl_.counters().bits_per_counter() / 8;
  }
};

// ------------------------------------------------------------------------
// Multiplicity adapters
// ------------------------------------------------------------------------

/// cm, scm: counter sketches; Add inserts one occurrence.
template <typename Impl>
class CountAdapter : public AdapterCore<MultiplicityFilter, Impl> {
  using Core = AdapterCore<MultiplicityFilter, Impl>;

 protected:
  using Core::adds_;
  using Core::impl_;

 public:
  using Core::Core;
  void Add(std::string_view key) override {
    impl_.Insert(key);
    ++adds_;
  }
  uint64_t QueryCount(std::string_view key) const override {
    return impl_.QueryCount(key);
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    return impl_.QueryCountWithStats(key, stats) > 0;
  }
  size_t memory_bytes() const override { return impl_.memory_bits() / 8; }
};

/// spectral, dynamic_count: counters that also delete.
template <typename Impl>
class RemovableCountAdapter : public CountAdapter<Impl> {
  using Count = CountAdapter<Impl>;
  using Count::adds_;
  using Count::impl_;
  using Count::name_;

 public:
  using Count::Count;
  Status Remove(std::string_view key) override {
    // QueryCount never underestimates (the registry builds spectral's
    // delete-capable kIncrementAll policy), so 0 proves absence and the
    // decrement cannot underflow the concrete class's CHECK.
    if (impl_.QueryCount(key) == 0) {
      return Status::NotFound(name_ + ": Remove of an absent key");
    }
    impl_.Delete(key);
    if (adds_ > 0) --adds_;
    return Status::Ok();
  }
  uint32_t capabilities() const override { return kIncrementalAdd | kRemove; }
};

/// CountingShbfX (§5.3, table-backed): incremental multiplicity updates.
/// Serde is replay-based: the structure's state is a deterministic function
/// of (spec, exact key→count table), so the payload is the spec plus the
/// table and deserialization re-inserts every occurrence.
class CountingShbfXAdapter : public MultiplicityFilter {
 public:
  CountingShbfXAdapter(std::string name, FilterSpec spec,
                       CountingShbfX::Params params)
      : name_(std::move(name)),
        spec_(spec),
        params_(params),
        impl_(params) {}

  std::string_view name() const override { return name_; }
  size_t num_elements() const override { return adds_; }
  void Add(std::string_view key) override {
    // Saturate at max_count instead of tripping the concrete class's CHECK:
    // through the uniform interface a caller cannot know every scheme's cap,
    // and the library's counting structures already saturate rather than
    // abort (PackedCounterArray). Counts at the cap stop growing, mirroring
    // "max_count is the largest representable multiplicity".
    if (impl_.ExactCount(key) < params_.filter.max_count) impl_.Insert(key);
    ++adds_;
  }
  uint64_t QueryCount(std::string_view key) const override {
    return impl_.QueryCount(key);
  }
  Status Remove(std::string_view key) override {
    // The exact table (§5.3.2) makes absence authoritative here — no
    // false-positive removal hazard at all in table-backed mode.
    if (impl_.ExactCount(key) == 0) {
      return Status::NotFound(name_ + ": Remove of an absent key");
    }
    impl_.Delete(key);
    if (adds_ > 0) --adds_;
    return Status::Ok();
  }
  uint32_t capabilities() const override { return kIncrementalAdd | kRemove; }
  void Clear() override {
    impl_.Clear();
    adds_ = 0;
  }
  size_t memory_bytes() const override {
    // Bit array + mirror counters; the exact table is off-structure in the
    // paper's architecture (§5.3.2) and not counted.
    return spec_.num_cells * (1 + spec_.counter_bits) / 8;
  }
  std::string ToBytes() const override {
    ByteWriter writer;
    spec_serde::WriteSpec(&writer, spec_);
    std::vector<std::pair<std::string, uint64_t>> entries;
    impl_.ForEachExactCount([&entries](std::string_view key, uint64_t count) {
      entries.emplace_back(std::string(key), count);
    });
    WriteKeyCountList(&writer, entries);
    return writer.Take();
  }

 private:
  std::string name_;
  FilterSpec spec_;
  CountingShbfX::Params params_;
  CountingShbfX impl_;
  size_t adds_ = 0;
};

/// ShbfX (§5): bulk-built — Add buffers the occurrence and the filter is
/// rebuilt lazily on the next query.
class ShbfXLazyAdapter : public MultiplicityFilter {
 public:
  ShbfXLazyAdapter(std::string name, FilterSpec spec, ShbfXParams params)
      : name_(std::move(name)), spec_(spec), params_(params), impl_(params) {}

  std::string_view name() const override { return name_; }
  size_t num_elements() const override { return multiset_.size(); }
  bool IncrementalAdd() const override { return false; }

  void Add(std::string_view key) override {
    multiset_.emplace_back(key);
    dirty_ = true;
  }
  uint64_t QueryCount(std::string_view key) const override {
    EnsureBuilt();
    return impl_.QueryCount(key);
  }
  BatchFastPath batch_fast_path() const override {
    EnsureBuilt();  // the engine resolves against the finished build
    return &impl_;
  }
  void PrepareForConstReads() override { EnsureBuilt(); }
  Status Remove(std::string_view key) override {
    // The buffered multiset is exact, so removal is exact too (no counting
    // hazard) — it just marks the filter for a lazy rebuild, the same cost
    // an Add already implies for this bulk-built structure. Swap-with-back
    // erase: the rebuild tallies the multiset order-independently, and an
    // O(n) shift per queued remove would dominate a dynamic-wrapper fold.
    auto it = std::find(multiset_.begin(), multiset_.end(), key);
    if (it == multiset_.end()) {
      return Status::NotFound(name_ + ": Remove of an absent key");
    }
    *it = std::move(multiset_.back());
    multiset_.pop_back();
    dirty_ = true;
    return Status::Ok();
  }
  uint32_t capabilities() const override { return kRemove; }
  void Clear() override {
    multiset_.clear();
    impl_ = ShbfX(params_);
    dirty_ = false;
  }
  size_t memory_bytes() const override { return impl_.num_bits() / 8; }
  std::string ToBytes() const override {
    ByteWriter writer;
    spec_serde::WriteSpec(&writer, spec_);
    WriteKeyList(&writer, multiset_);
    return writer.Take();
  }

  void SetKeys(std::vector<std::string> multiset) {
    multiset_ = std::move(multiset);
    dirty_ = true;
  }

 private:
  void EnsureBuilt() const {
    if (!dirty_) return;
    impl_ = ShbfX(params_);
    // Tally here instead of ShbfX::Build so multiplicities past max_count
    // saturate at the cap (Build CHECK-fails on them; through the uniform
    // interface a caller cannot know the cap).
    std::unordered_map<std::string, uint32_t> tallies;
    for (const auto& key : multiset_) ++tallies[key];
    for (const auto& [key, count] : tallies) {
      impl_.InsertWithCount(key, std::min(count, params_.max_count));
    }
    dirty_ = false;
  }

  std::string name_;
  FilterSpec spec_;
  ShbfXParams params_;
  mutable ShbfX impl_;
  mutable bool dirty_ = false;
  std::vector<std::string> multiset_;
};

// ------------------------------------------------------------------------
// Association adapters
// ------------------------------------------------------------------------

/// ShbfA (§4): bulk-built over (S1, S2); Add buffers and rebuilds lazily.
class ShbfALazyAdapter : public AssociationFilter {
 public:
  ShbfALazyAdapter(std::string name, FilterSpec spec, ShbfAParams params)
      : name_(std::move(name)), spec_(spec), params_(params), impl_(params) {}

  std::string_view name() const override { return name_; }
  size_t num_elements() const override { return s1_.size() + s2_.size(); }
  bool IncrementalAdd() const override { return false; }

  void AddToS1(std::string_view key) override {
    s1_.emplace_back(key);
    dirty_ = true;
  }
  void AddToS2(std::string_view key) override {
    s2_.emplace_back(key);
    dirty_ = true;
  }
  AssociationOutcome Query(std::string_view key) const override {
    EnsureBuilt();
    return impl_.Query(key);
  }
  AssociationOutcome QueryWithStats(std::string_view key,
                                    QueryStats* stats) const override {
    EnsureBuilt();
    return impl_.QueryWithStats(key, stats);
  }
  BatchFastPath batch_fast_path() const override {
    EnsureBuilt();  // the engine resolves against the finished build
    return &impl_;
  }
  void PrepareForConstReads() override { EnsureBuilt(); }
  Status Remove(std::string_view key) override {
    // Membership view is S1 ∪ S2, so removal searches both buffered sets
    // (S1 first, matching Add == AddToS1). Exact, like ShbfXLazyAdapter;
    // swap-with-back erase because Build is order-independent.
    for (auto* side : {&s1_, &s2_}) {
      auto it = std::find(side->begin(), side->end(), key);
      if (it != side->end()) {
        *it = std::move(side->back());
        side->pop_back();
        dirty_ = true;
        return Status::Ok();
      }
    }
    return Status::NotFound(name_ + ": Remove of an absent key");
  }
  uint32_t capabilities() const override { return kRemove; }
  void Clear() override {
    s1_.clear();
    s2_.clear();
    impl_ = ShbfA(params_);
    dirty_ = false;
  }
  size_t memory_bytes() const override { return impl_.num_bits() / 8; }
  std::string ToBytes() const override {
    ByteWriter writer;
    spec_serde::WriteSpec(&writer, spec_);
    WriteKeyList(&writer, s1_);
    WriteKeyList(&writer, s2_);
    return writer.Take();
  }

  void SetKeys(std::vector<std::string> s1, std::vector<std::string> s2) {
    s1_ = std::move(s1);
    s2_ = std::move(s2);
    dirty_ = true;
  }

 private:
  void EnsureBuilt() const {
    if (!dirty_) return;
    impl_ = ShbfA(params_);
    impl_.Build(s1_, s2_);
    dirty_ = false;
  }

  std::string name_;
  FilterSpec spec_;
  ShbfAParams params_;
  mutable ShbfA impl_;
  mutable bool dirty_ = false;
  std::vector<std::string> s1_;
  std::vector<std::string> s2_;
};

/// CountingShbfA (§4.4): incremental association updates. Replay serde, as
/// the state is a deterministic function of (spec, S1, S2).
class CountingShbfAAdapter : public AssociationFilter {
 public:
  CountingShbfAAdapter(std::string name, FilterSpec spec,
                       CountingShbfA::Params params)
      : name_(std::move(name)),
        spec_(spec),
        params_(params),
        impl_(params) {}

  std::string_view name() const override { return name_; }
  size_t num_elements() const override {
    return impl_.size_s1() + impl_.size_s2();
  }
  void AddToS1(std::string_view key) override { impl_.InsertS1(key); }
  void AddToS2(std::string_view key) override { impl_.InsertS2(key); }
  AssociationOutcome Query(std::string_view key) const override {
    return impl_.Query(key);
  }
  AssociationOutcome QueryWithStats(std::string_view key,
                                    QueryStats* stats) const override {
    return impl_.QueryWithStats(key, stats);
  }
  Status Remove(std::string_view key) override {
    // The exact side tables T1/T2 make absence authoritative; S1 is
    // preferred to mirror the membership view's Add == AddToS1.
    if (impl_.InS1(key)) {
      impl_.DeleteS1(key);
      return Status::Ok();
    }
    if (impl_.InS2(key)) {
      impl_.DeleteS2(key);
      return Status::Ok();
    }
    return Status::NotFound(name_ + ": Remove of an absent key");
  }
  uint32_t capabilities() const override { return kIncrementalAdd | kRemove; }
  void Clear() override { impl_.Clear(); }
  size_t memory_bytes() const override {
    return spec_.num_cells * (1 + spec_.counter_bits) / 8;
  }
  std::string ToBytes() const override {
    ByteWriter writer;
    spec_serde::WriteSpec(&writer, spec_);
    std::vector<std::string> s1;
    std::vector<std::string> s2;
    impl_.ForEachS1([&s1](std::string_view key) { s1.emplace_back(key); });
    impl_.ForEachS2([&s2](std::string_view key) { s2.emplace_back(key); });
    WriteKeyList(&writer, s1);
    WriteKeyList(&writer, s2);
    return writer.Take();
  }

 private:
  std::string name_;
  FilterSpec spec_;
  CountingShbfA::Params params_;
  CountingShbfA impl_;
};

/// iBF (§4.5): one Bloom filter per set. Serde concatenates the two native
/// Bloom blobs.
class IbfAdapter : public AssociationFilter {
 public:
  IbfAdapter(std::string name, IndividualBloomFilters impl)
      : name_(std::move(name)), impl_(std::move(impl)) {}

  std::string_view name() const override { return name_; }
  size_t num_elements() const override { return adds_; }
  void AddToS1(std::string_view key) override {
    impl_.AddToS1(key);
    ++adds_;
  }
  void AddToS2(std::string_view key) override {
    impl_.AddToS2(key);
    ++adds_;
  }
  AssociationOutcome Query(std::string_view key) const override {
    return impl_.Query(key);
  }
  AssociationOutcome QueryWithStats(std::string_view key,
                                    QueryStats* stats) const override {
    return impl_.QueryWithStats(key, stats);
  }
  bool Contains(std::string_view key) const override {
    // iBF's Query never reports kNotFound (a (0,0) pattern is mapped to
    // kUnknown because it breaks the e ∈ S1 ∪ S2 promise), so union
    // membership must consult the two filters directly.
    return impl_.filter1().Contains(key) || impl_.filter2().Contains(key);
  }
  void Clear() override {
    impl_.Clear();
    adds_ = 0;
  }
  size_t memory_bytes() const override { return impl_.total_bits() / 8; }
  std::string ToBytes() const override {
    ByteWriter writer;
    writer.PutU64(adds_);
    std::string blob1 = impl_.filter1().ToBytes();
    std::string blob2 = impl_.filter2().ToBytes();
    writer.PutU64(blob1.size());
    writer.PutBytes(blob1.data(), blob1.size());
    writer.PutBytes(blob2.data(), blob2.size());
    return writer.Take();
  }

  void RestoreAddCount(size_t adds) { adds_ = adds; }

 private:
  std::string name_;
  IndividualBloomFilters impl_;
  size_t adds_ = 0;
};

// ------------------------------------------------------------------------
// Spec → Params derivations + registration
// ------------------------------------------------------------------------

uint32_t RoundUpToMultiple(uint32_t value, uint32_t divisor) {
  uint32_t remainder = value % divisor;
  return remainder == 0 ? value : value + divisor - remainder;
}

template <typename Adapter, typename Params>
Status MakeAdapter(const std::string& name, const Params& params,
                   std::unique_ptr<MembershipFilter>* out) {
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  *out = std::make_unique<Adapter>(name, WrappedType<Adapter>(params));
  return Status::Ok();
}

// ------------------------------------------------------------------------
// Mapped-image hooks (flat zero-copy persistence; docs/persistence.md)
// ------------------------------------------------------------------------

/// Saver body shared by the single-bit-array membership filters: unwraps
/// the adapter, fills the geometry record from the live impl's getters via
/// `fill`, and borrows the bit payload as the image's one region.
template <typename Adapter, typename FillGeometry>
Status SaveBitArrayImage(const char* name, const MembershipFilter& filter,
                         storage::ImageHeader* header,
                         std::vector<storage::RegionPayload>* payloads,
                         FillGeometry fill) {
  const auto* adapter = dynamic_cast<const Adapter*>(&filter);
  if (adapter == nullptr) {
    return Status::FailedPrecondition(
        std::string(name) +
        ": mapped image needs an unwrapped instance (engine wrappers have no "
        "flat layout)");
  }
  const auto& impl = adapter->impl();
  storage::ImageGeometry& g = header->geometry;
  g.num_bits = impl.num_bits();
  g.num_hashes = impl.num_hashes();
  g.hash_algorithm = static_cast<uint8_t>(impl.hash_algorithm());
  g.seed = impl.seed();
  g.num_elements = adapter->num_elements();
  g.array_total_bits = impl.bits().total_bits();
  fill(impl, &g);
  payloads->push_back({impl.bits().data(), impl.bits().PayloadBytes()});
  return Status::Ok();
}

/// Opener-side geometry-vs-region cross-checks shared by the single-region
/// filters. Everything here is a Status, never a CHECK: the values come off
/// disk and must not be able to crash the process. Callers run the Params
/// Validate() FIRST so every field below is already range-sane.
Status CheckSingleRegion(const storage::ImageHeader& header,
                         const std::vector<storage::MappedRegionView>& regions,
                         uint64_t expected_slack) {
  const storage::ImageGeometry& g = header.geometry;
  if (regions.size() != 1) {
    return Status::InvalidArgument(
        "field region_count: expected 1 region, image carries " +
        std::to_string(regions.size()));
  }
  if (g.array_total_bits != g.num_bits + expected_slack) {
    return Status::InvalidArgument(
        "field array_total_bits: " + std::to_string(g.array_total_bits) +
        " != num_bits + slack = " +
        std::to_string(g.num_bits + expected_slack));
  }
  const uint64_t want_bytes = (g.array_total_bits + 7) / 8;
  if (regions[0].bytes != want_bytes) {
    return Status::InvalidArgument(
        "field region[0].bytes: " + std::to_string(regions[0].bytes) +
        " != bit payload bytes " + std::to_string(want_bytes));
  }
  return Status::Ok();
}

/// Rejects hash ids this build doesn't know (the enum is open on disk).
Status CheckHashId(uint8_t hash_algorithm) {
  if (hash_algorithm > 3) {
    return Status::InvalidArgument("field hash_algorithm: unknown hash id " +
                                   std::to_string(hash_algorithm));
  }
  return Status::Ok();
}

/// Opener body: params already Validate()d, geometry already cross-checked,
/// so the Impl view constructor's CHECKs cannot fire. Builds the adapter
/// over a BitArray::View of the mapped region — zero copies.
template <typename Adapter, typename Params>
Status OpenBitArrayImage(const char* name, const Params& params,
                         const storage::ImageHeader& header,
                         const std::vector<storage::MappedRegionView>& regions,
                         uint64_t expected_slack,
                         std::unique_ptr<MembershipFilter>* out) {
  const storage::ImageGeometry& g = header.geometry;
  BitArray bits = BitArray::View(regions[0].data,
                                 static_cast<size_t>(g.num_bits),
                                 static_cast<size_t>(expected_slack));
  auto adapter = std::make_unique<Adapter>(
      name, WrappedType<Adapter>(params, std::move(bits),
                                 static_cast<size_t>(g.num_elements)));
  adapter->RestoreAddCount(static_cast<size_t>(g.num_elements));
  *out = std::move(adapter);
  return Status::Ok();
}

Status RegisterAll(FilterRegistry* r) {
  Status s;

  // --- membership ------------------------------------------------------
  // bloom: num_cells bits, num_hashes probes.
  s = r->Register(
      {.name = "bloom",
       .family = FilterFamily::kMembership,
       .description = "standard Bloom filter (Bloom 1970; paper §2.1, Eq 8)",
       .capabilities = kIncrementalAdd | kMergeable,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             return MakeAdapter<BloomAdapter>(
                 "bloom",
                 BloomFilter::Params{.num_bits = spec.num_cells,
                                     .num_hashes = spec.num_hashes,
                                     .hash_algorithm = spec.hash_algorithm,
                                     .seed = spec.seed},
                 out);
           },
       .deserializer = NativeDeserializer<BloomAdapter>("bloom"),
       .mapped_saver =
           [](const MembershipFilter& filter, storage::ImageHeader* header,
              std::vector<storage::RegionPayload>* payloads) {
             return SaveBitArrayImage<BloomAdapter>(
                 "bloom", filter, header, payloads,
                 [](const BloomFilter&, storage::ImageGeometry*) {});
           },
       .mapped_opener =
           [](const storage::ImageHeader& header,
              const std::vector<storage::MappedRegionView>& regions,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             const storage::ImageGeometry& g = header.geometry;
             Status s = CheckHashId(g.hash_algorithm);
             if (!s.ok()) return s;
             BloomFilter::Params params{
                 .num_bits = static_cast<size_t>(g.num_bits),
                 .num_hashes = g.num_hashes,
                 .hash_algorithm = static_cast<HashAlgorithm>(g.hash_algorithm),
                 .seed = g.seed};
             s = params.Validate();
             if (!s.ok()) return s;
             s = CheckSingleRegion(header, regions, /*expected_slack=*/0);
             if (!s.ok()) return s;
             return OpenBitArrayImage<BloomAdapter>(
                 "bloom", params, header, regions, /*expected_slack=*/0, out);
           }});
  if (!s.ok()) return s;

  // shbf_m: num_hashes rounded up to even (k/2 base-offset pairs).
  s = r->Register(
      {.name = "shbf_m",
       .family = FilterFamily::kMembership,
       .description = "shifting Bloom filter, membership (paper §3)",
       .capabilities = kIncrementalAdd | kMergeable,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             uint32_t k = RoundUpToMultiple(spec.num_hashes < 2 ? 2
                                                                : spec.num_hashes,
                                            2);
             return MakeAdapter<ShbfMAdapter>(
                 "shbf_m",
                 ShbfM::Params{.num_bits = spec.num_cells,
                               .num_hashes = k,
                               .hash_algorithm = spec.hash_algorithm,
                               .seed = spec.seed},
                 out);
           },
       .deserializer = NativeDeserializer<ShbfMAdapter>("shbf_m"),
       .mapped_saver =
           [](const MembershipFilter& filter, storage::ImageHeader* header,
              std::vector<storage::RegionPayload>* payloads) {
             return SaveBitArrayImage<ShbfMAdapter>(
                 "shbf_m", filter, header, payloads,
                 [](const ShbfM& impl, storage::ImageGeometry* g) {
                   g->max_offset_span = impl.max_offset_span();
                 });
           },
       .mapped_opener =
           [](const storage::ImageHeader& header,
              const std::vector<storage::MappedRegionView>& regions,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             const storage::ImageGeometry& g = header.geometry;
             Status s = CheckHashId(g.hash_algorithm);
             if (!s.ok()) return s;
             ShbfM::Params params{
                 .num_bits = static_cast<size_t>(g.num_bits),
                 .num_hashes = g.num_hashes,
                 .max_offset_span = g.max_offset_span,
                 .hash_algorithm = static_cast<HashAlgorithm>(g.hash_algorithm),
                 .seed = g.seed};
             s = params.Validate();
             if (!s.ok()) return s;
             // Shifted writes spill up to w̄ − 1 bits past m − 1: slack = w̄.
             s = CheckSingleRegion(header, regions, g.max_offset_span);
             if (!s.ok()) return s;
             return OpenBitArrayImage<ShbfMAdapter>(
                 "shbf_m", params, header, regions, g.max_offset_span, out);
           }});
  if (!s.ok()) return s;

  // split_block_bloom: each of the k probes owns one sub_block_bits-wide
  // sub-word; block_bits is sized to k * sub_block_bits (clamped to one
  // cache line, rounded to whole words) so no sub-word goes unused and a
  // query reads one block.
  s = r->Register(
      {.name = "split_block_bloom",
       .family = FilterFamily::kMembership,
       .description =
           "split-block Bloom filter (Boost.Bloom multiblock; one block read "
           "per key)",
       .capabilities = kIncrementalAdd | kMergeable,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             const uint32_t k =
                 std::min(spec.num_hashes < 1 ? 1u : spec.num_hashes,
                          SplitBlockBloomFilter::kMaxBatchHashes);
             const uint32_t sub = spec.sub_block_bits;
             const uint32_t block_bits = static_cast<uint32_t>(std::clamp(
                 RoundUp(size_t{k} * sub, 64),
                 size_t{SplitBlockBloomFilter::kMinBlockBits},
                 size_t{SplitBlockBloomFilter::kMaxBlockBits}));
             return MakeAdapter<SplitBlockBloomAdapter>(
                 "split_block_bloom",
                 SplitBlockBloomFilter::Params{.num_bits = spec.num_cells,
                                               .num_hashes = k,
                                               .block_bits = block_bits,
                                               .sub_block_bits = sub,
                                               .hash_algorithm =
                                                   spec.hash_algorithm,
                                               .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<SplitBlockBloomAdapter>("split_block_bloom"),
       .mapped_saver =
           [](const MembershipFilter& filter, storage::ImageHeader* header,
              std::vector<storage::RegionPayload>* payloads) {
             return SaveBitArrayImage<SplitBlockBloomAdapter>(
                 "split_block_bloom", filter, header, payloads,
                 [](const SplitBlockBloomFilter& impl,
                    storage::ImageGeometry* g) {
                   g->block_bits = impl.block_bits();
                   g->sub_block_bits = impl.sub_block_bits();
                 });
           },
       .mapped_opener =
           [](const storage::ImageHeader& header,
              const std::vector<storage::MappedRegionView>& regions,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             const storage::ImageGeometry& g = header.geometry;
             Status s = CheckHashId(g.hash_algorithm);
             if (!s.ok()) return s;
             SplitBlockBloomFilter::Params params{
                 .num_bits = static_cast<size_t>(g.num_bits),
                 .num_hashes = g.num_hashes,
                 .block_bits = g.block_bits,
                 .sub_block_bits = g.sub_block_bits,
                 .hash_algorithm = static_cast<HashAlgorithm>(g.hash_algorithm),
                 .seed = g.seed};
             s = params.Validate();
             if (!s.ok()) return s;
             // The owning ctor rounds m up to whole blocks; a saved image
             // must already be aligned or the view ctor would CHECK.
             if (g.num_bits % g.block_bits != 0) {
               return Status::InvalidArgument(
                   "field num_bits: " + std::to_string(g.num_bits) +
                   " not a multiple of block_bits " +
                   std::to_string(g.block_bits));
             }
             s = CheckSingleRegion(header, regions, /*expected_slack=*/0);
             if (!s.ok()) return s;
             return OpenBitArrayImage<SplitBlockBloomAdapter>(
                 "split_block_bloom", params, header, regions,
                 /*expected_slack=*/0, out);
           }});
  if (!s.ok()) return s;

  // split_block_shbf_m: num_hashes rounded up to even (k/2 pairs), each
  // pair confined to its own sub-word. sub_block_bits raised to the
  // scheme's 16-bit minimum; the offset span is half the sub-word — wide
  // enough for base entropy, small enough that base + offset stays inside.
  s = r->Register(
      {.name = "split_block_shbf_m",
       .family = FilterFamily::kMembership,
       .description =
           "split-block shifting Bloom filter, membership (paper §3 + "
           "multiblock layout; one block read per key)",
       .capabilities = kIncrementalAdd | kMergeable,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             const uint32_t k = std::min(
                 RoundUpToMultiple(spec.num_hashes < 2 ? 2 : spec.num_hashes,
                                   2),
                 SplitBlockShbfM::kMaxBatchHashes);
             const uint32_t pairs = k / 2;
             const uint32_t sub =
                 spec.sub_block_bits < 16 ? 16 : spec.sub_block_bits;
             const uint32_t block_bits = static_cast<uint32_t>(std::clamp(
                 RoundUp(size_t{pairs} * sub, 64),
                 size_t{SplitBlockShbfM::kMinBlockBits},
                 size_t{SplitBlockShbfM::kMaxBlockBits}));
             return MakeAdapter<SplitBlockShbfMAdapter>(
                 "split_block_shbf_m",
                 SplitBlockShbfM::Params{.num_bits = spec.num_cells,
                                         .num_hashes = k,
                                         .block_bits = block_bits,
                                         .sub_block_bits = sub,
                                         .max_offset_span = sub / 2,
                                         .hash_algorithm = spec.hash_algorithm,
                                         .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<SplitBlockShbfMAdapter>("split_block_shbf_m"),
       .mapped_saver =
           [](const MembershipFilter& filter, storage::ImageHeader* header,
              std::vector<storage::RegionPayload>* payloads) {
             return SaveBitArrayImage<SplitBlockShbfMAdapter>(
                 "split_block_shbf_m", filter, header, payloads,
                 [](const SplitBlockShbfM& impl, storage::ImageGeometry* g) {
                   g->block_bits = impl.block_bits();
                   g->sub_block_bits = impl.sub_block_bits();
                   g->max_offset_span = impl.max_offset_span();
                 });
           },
       .mapped_opener =
           [](const storage::ImageHeader& header,
              const std::vector<storage::MappedRegionView>& regions,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             const storage::ImageGeometry& g = header.geometry;
             Status s = CheckHashId(g.hash_algorithm);
             if (!s.ok()) return s;
             SplitBlockShbfM::Params params{
                 .num_bits = static_cast<size_t>(g.num_bits),
                 .num_hashes = g.num_hashes,
                 .block_bits = g.block_bits,
                 .sub_block_bits = g.sub_block_bits,
                 .max_offset_span = g.max_offset_span,
                 .hash_algorithm = static_cast<HashAlgorithm>(g.hash_algorithm),
                 .seed = g.seed};
             s = params.Validate();
             if (!s.ok()) return s;
             if (g.num_bits % g.block_bits != 0) {
               return Status::InvalidArgument(
                   "field num_bits: " + std::to_string(g.num_bits) +
                   " not a multiple of block_bits " +
                   std::to_string(g.block_bits));
             }
             // Pairs never leave their sub-word: slack 0, unlike flat shbf_m.
             s = CheckSingleRegion(header, regions, /*expected_slack=*/0);
             if (!s.ok()) return s;
             return OpenBitArrayImage<SplitBlockShbfMAdapter>(
                 "split_block_shbf_m", params, header, regions,
                 /*expected_slack=*/0, out);
           }});
  if (!s.ok()) return s;

  // shbf_g: t = num_shifts (must divide 56); k rounded up to a multiple of
  // t + 1. t is range-checked first: the rounding divides by t + 1.
  s = r->Register(
      {.name = "shbf_g",
       .family = FilterFamily::kMembership,
       .description =
           "generalized shifting Bloom filter, t shifts (paper §3.6)",
       .capabilities = kIncrementalAdd | kMergeable,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             const uint32_t t = spec.num_shifts;
             if (t < 1 || t > kDefaultMaxOffsetSpan - 1) {
               return Status::InvalidArgument(
                   "shbf_g: num_shifts must be in [1, 56]");
             }
             return MakeAdapter<ShbfGAdapter>(
                 "shbf_g",
                 GeneralizedShbfM::Params{
                     .num_bits = spec.num_cells,
                     .num_hashes = RoundUpToMultiple(spec.num_hashes, t + 1),
                     .num_shifts = t,
                     .hash_algorithm = spec.hash_algorithm,
                     .seed = spec.seed},
                 out);
           },
       .deserializer = NativeDeserializer<ShbfGAdapter>("shbf_g")});
  if (!s.ok()) return s;

  // counting_shbf_m: same geometry as shbf_m plus counter_bits counters.
  s = r->Register(
      {.name = "counting_shbf_m",
       .family = FilterFamily::kMembership,
       .description = "counting shifting Bloom filter (paper §3.3)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             uint32_t k = RoundUpToMultiple(spec.num_hashes < 2 ? 2
                                                                : spec.num_hashes,
                                            2);
             return MakeAdapter<CountingShbfMAdapter>(
                 "counting_shbf_m",
                 CountingShbfM::Params{.num_bits = spec.num_cells,
                                       .num_hashes = k,
                                       .counter_bits = spec.counter_bits,
                                       .hash_algorithm = spec.hash_algorithm,
                                       .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<CountingShbfMAdapter>("counting_shbf_m")});
  if (!s.ok()) return s;

  // km_bloom: num_cells bits, k simulated probes from two real hashes.
  s = r->Register(
      {.name = "km_bloom",
       .family = FilterFamily::kMembership,
       .description = "Kirsch-Mitzenmacher two-hash Bloom filter (paper §2.1)",
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             return MakeAdapter<BitArrayAdapter<KmBloomFilter>>(
                 "km_bloom",
                 KmBloomFilter::Params{.num_bits = spec.num_cells,
                                       .num_hashes = spec.num_hashes,
                                       .hash_algorithm = spec.hash_algorithm,
                                       .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<BitArrayAdapter<KmBloomFilter>>("km_bloom")});
  if (!s.ok()) return s;

  // one_mem_bf: num_cells bits partitioned into word_bits words.
  s = r->Register(
      {.name = "one_mem_bf",
       .family = FilterFamily::kMembership,
       .description = "one-memory-access Bloom filter (Qiao 2011; paper §6.2)",
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             return MakeAdapter<BitArrayAdapter<OneMemBloomFilter>>(
                 "one_mem_bf",
                 OneMemBloomFilter::Params{.num_bits = spec.num_cells,
                                           .num_hashes = spec.num_hashes,
                                           .word_bits = spec.word_bits,
                                           .hash_algorithm =
                                               spec.hash_algorithm,
                                           .seed = spec.seed},
                 out);
           },
       .deserializer = NativeDeserializer<BitArrayAdapter<OneMemBloomFilter>>(
           "one_mem_bf")});
  if (!s.ok()) return s;

  // counting_bloom: num_cells counters of counter_bits each.
  s = r->Register(
      {.name = "counting_bloom",
       .family = FilterFamily::kMembership,
       .description = "counting Bloom filter (Fan 2000; paper §1.1)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             return MakeAdapter<CountingBloomAdapter>(
                 "counting_bloom",
                 CountingBloomFilter::Params{.num_counters = spec.num_cells,
                                             .num_hashes = spec.num_hashes,
                                             .counter_bits = spec.counter_bits,
                                             .hash_algorithm =
                                                 spec.hash_algorithm,
                                             .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<CountingBloomAdapter>("counting_bloom")});
  if (!s.ok()) return s;

  // cuckoo: buckets from expected_keys at ~84% load when given, otherwise
  // from num_cells interpreted as a bit budget for fingerprints.
  s = r->Register(
      {.name = "cuckoo",
       .family = FilterFamily::kMembership,
       .description = "cuckoo filter (Fan 2014; paper §2.1)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             size_t buckets;
             if (spec.expected_keys > 0) {
               buckets = static_cast<size_t>(
                   static_cast<double>(spec.expected_keys) /
                       (0.84 * spec.bucket_size) +
                   1.0);
             } else {
               buckets = spec.num_cells /
                         (static_cast<size_t>(spec.fingerprint_bits) *
                          spec.bucket_size);
             }
             if (buckets == 0) buckets = 1;
             return MakeAdapter<CuckooAdapter>(
                 "cuckoo",
                 CuckooFilter::Params{.num_buckets = buckets,
                                      .bucket_size = spec.bucket_size,
                                      .fingerprint_bits = spec.fingerprint_bits,
                                      .hash_algorithm = spec.hash_algorithm,
                                      .seed = spec.seed},
                 out);
           },
       .deserializer =
           [](std::string_view payload,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             ByteReader reader(payload);
             uint64_t native_size = 0;
             if (!reader.GetU64(&native_size) ||
                 native_size > reader.remaining()) {
               return Status::InvalidArgument("cuckoo: bad payload framing");
             }
             std::string native(native_size, '\0');
             if (!reader.GetBytes(native.data(), native_size)) {
               return Status::InvalidArgument("cuckoo: truncated payload");
             }
             std::vector<std::pair<std::string, uint64_t>> overfull;
             if (!ReadKeyCountList(&reader, &overfull) || !reader.AtEnd()) {
               return Status::InvalidArgument("cuckoo: bad overfull table");
             }
             for (const auto& [key, count] : overfull) {
               if (count == 0) {
                 return Status::InvalidArgument(
                     "cuckoo: zero-count overfull entry");
               }
             }
             std::optional<CuckooFilter> impl;
             Status s = CuckooFilter::FromBytes(native, &impl);
             if (!s.ok()) return s;
             auto adapter =
                 std::make_unique<CuckooAdapter>("cuckoo", std::move(*impl));
             adapter->RestoreOverfull(std::move(overfull));
             *out = std::move(adapter);
             return Status::Ok();
           }});
  if (!s.ok()) return s;

  // --- multiplicity ----------------------------------------------------
  // spectral: num_cells counters, increment-all policy (delete-capable).
  s = r->Register(
      {.name = "spectral",
       .family = FilterFamily::kMultiplicity,
       .description = "spectral Bloom filter (Cohen 2003; paper §2.3, §6.4)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             return MakeAdapter<RemovableCountAdapter<SpectralBloomFilter>>(
                 "spectral",
                 SpectralBloomFilter::Params{.num_counters = spec.num_cells,
                                             .num_hashes = spec.num_hashes,
                                             .counter_bits = spec.counter_bits,
                                             .hash_algorithm =
                                                 spec.hash_algorithm,
                                             .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<RemovableCountAdapter<SpectralBloomFilter>>(
               "spectral")});
  if (!s.ok()) return s;

  // cm: depth = num_hashes rows, width = num_cells / depth counters per row.
  s = r->Register(
      {.name = "cm",
       .family = FilterFamily::kMultiplicity,
       .description = "count-min sketch (Cormode 2005; paper §2.3, §5.5)",
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             size_t width = spec.num_cells / spec.num_hashes;
             return MakeAdapter<CountAdapter<CmSketch>>(
                 "cm",
                 CmSketch::Params{.depth = spec.num_hashes,
                                  .width = width == 0 ? 1 : width,
                                  .counter_bits = spec.counter_bits,
                                  .hash_algorithm = spec.hash_algorithm,
                                  .seed = spec.seed},
                 out);
           },
       .deserializer = NativeDeserializer<CountAdapter<CmSketch>>("cm")});
  if (!s.ok()) return s;

  // scm: depth rounded up to even; width = num_cells / depth; counter_bits
  // clamped to 28 so pairs stay one-access (§5.5).
  s = r->Register(
      {.name = "scm",
       .family = FilterFamily::kMultiplicity,
       .description = "shifting count-min sketch (paper §5.5)",
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             uint32_t depth = RoundUpToMultiple(
                 spec.num_hashes < 2 ? 2 : spec.num_hashes, 2);
             size_t width = spec.num_cells / depth;
             return MakeAdapter<CountAdapter<ScmSketch>>(
                 "scm",
                 ScmSketch::Params{.depth = depth,
                                   .width = width == 0 ? 1 : width,
                                   .counter_bits =
                                       spec.counter_bits > 28
                                           ? 28u
                                           : spec.counter_bits,
                                   .hash_algorithm = spec.hash_algorithm,
                                   .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<CountAdapter<ScmSketch>>("scm")});
  if (!s.ok()) return s;

  // dynamic_count: num_cells counters; base width clamped to the scheme's
  // [1, 16] range.
  s = r->Register(
      {.name = "dynamic_count",
       .family = FilterFamily::kMultiplicity,
       .description = "dynamic count filter (Aguilar-Saborit 2006; paper §2.3)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             return MakeAdapter<RemovableCountAdapter<DynamicCountFilter>>(
                 "dynamic_count",
                 DynamicCountFilter::Params{.num_counters = spec.num_cells,
                                            .num_hashes = spec.num_hashes,
                                            .base_bits =
                                                spec.counter_bits > 16
                                                    ? 16u
                                                    : spec.counter_bits,
                                            .hash_algorithm =
                                                spec.hash_algorithm,
                                            .seed = spec.seed},
                 out);
           },
       .deserializer =
           NativeDeserializer<RemovableCountAdapter<DynamicCountFilter>>(
               "dynamic_count")});
  if (!s.ok()) return s;

  // shbf_x: bulk-built multiplicity filter; max_count clamped to the
  // implementation cap.
  s = r->Register(
      {.name = "shbf_x",
       .family = FilterFamily::kMultiplicity,
       .description = "shifting Bloom filter, multiplicity (paper §5)",
       .capabilities = kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             ShbfXParams params{
                 .num_bits = spec.num_cells,
                 .num_hashes = spec.num_hashes,
                 .max_count = spec.max_count > ShbfXParams::kMaxSupportedCount
                                  ? ShbfXParams::kMaxSupportedCount
                                  : spec.max_count,
                 .hash_algorithm = spec.hash_algorithm,
                 .seed = spec.seed};
             Status valid = params.Validate();
             if (!valid.ok()) return valid;
             *out = std::make_unique<ShbfXLazyAdapter>("shbf_x", spec, params);
             return Status::Ok();
           },
       .deserializer =
           [](std::string_view payload,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             ByteReader reader(payload);
             FilterSpec spec;
             std::vector<std::string> multiset;
             if (!spec_serde::ReadSpec(&reader, &spec) ||
                 !ReadKeyList(&reader, &multiset) || !reader.AtEnd()) {
               return Status::InvalidArgument("shbf_x: bad replay payload");
             }
             // Occurrences past max_count are legal here: the adapter's
             // lazy build saturates them at the cap, exactly as the live
             // filter the blob was written from did.
             std::unique_ptr<MembershipFilter> base;
             Status s = FilterRegistry::Global().Create("shbf_x", spec, &base);
             if (!s.ok()) return s;
             static_cast<ShbfXLazyAdapter*>(base.get())
                 ->SetKeys(std::move(multiset));
             *out = std::move(base);
             return Status::Ok();
           }});
  if (!s.ok()) return s;

  // counting_shbf_x: incremental twin, exact-table-backed (§5.3.2).
  s = r->Register(
      {.name = "counting_shbf_x",
       .family = FilterFamily::kMultiplicity,
       .description =
           "counting shifting Bloom filter, multiplicity (paper §5.3)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             CountingShbfX::Params params{
                 .filter = {.num_bits = spec.num_cells,
                            .num_hashes = spec.num_hashes,
                            .max_count =
                                spec.max_count > ShbfXParams::kMaxSupportedCount
                                    ? ShbfXParams::kMaxSupportedCount
                                    : spec.max_count,
                            .hash_algorithm = spec.hash_algorithm,
                            .seed = spec.seed},
                 .counter_bits = spec.counter_bits,
                 .mode = CountingShbfX::UpdateMode::kTableBacked};
             Status valid = params.Validate();
             if (!valid.ok()) return valid;
             *out = std::make_unique<CountingShbfXAdapter>("counting_shbf_x",
                                                           spec, params);
             return Status::Ok();
           },
       .deserializer =
           [](std::string_view payload,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             ByteReader reader(payload);
             FilterSpec spec;
             if (!spec_serde::ReadSpec(&reader, &spec)) {
               return Status::InvalidArgument(
                   "counting_shbf_x: bad replay payload");
             }
             std::vector<std::pair<std::string, uint64_t>> entries;
             if (!ReadKeyCountList(&reader, &entries) || !reader.AtEnd()) {
               return Status::InvalidArgument(
                   "counting_shbf_x: bad replay table");
             }
             // The exact table can never legally hold counts outside
             // [1, max_count]; reject corruption here, where a Status is
             // possible, instead of replaying it.
             const uint64_t effective_max =
                 std::min(spec.max_count, ShbfXParams::kMaxSupportedCount);
             for (const auto& [key, count] : entries) {
               if (count == 0 || count > effective_max) {
                 return Status::InvalidArgument(
                     "counting_shbf_x: table count out of range");
               }
             }
             std::unique_ptr<MembershipFilter> base;
             Status s = FilterRegistry::Global().Create("counting_shbf_x",
                                                        spec, &base);
             if (!s.ok()) return s;
             auto* adapter = static_cast<CountingShbfXAdapter*>(base.get());
             for (const auto& [key, count] : entries) {
               for (uint64_t occurrence = 0; occurrence < count;
                    ++occurrence) {
                 adapter->Add(key);
               }
             }
             *out = std::move(base);
             return Status::Ok();
           }});
  if (!s.ok()) return s;

  // --- association -----------------------------------------------------
  // shbf_a: bulk-built single-array association filter.
  s = r->Register(
      {.name = "shbf_a",
       .family = FilterFamily::kAssociation,
       .description = "shifting Bloom filter, association (paper §4)",
       .capabilities = kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             ShbfAParams params{.num_bits = spec.num_cells,
                                .num_hashes = spec.num_hashes,
                                .hash_algorithm = spec.hash_algorithm,
                                .seed = spec.seed};
             Status valid = params.Validate();
             if (!valid.ok()) return valid;
             *out = std::make_unique<ShbfALazyAdapter>("shbf_a", spec, params);
             return Status::Ok();
           },
       .deserializer =
           [](std::string_view payload,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             ByteReader reader(payload);
             FilterSpec spec;
             std::vector<std::string> s1;
             std::vector<std::string> s2;
             if (!spec_serde::ReadSpec(&reader, &spec) ||
                 !ReadKeyList(&reader, &s1) || !ReadKeyList(&reader, &s2) ||
                 !reader.AtEnd()) {
               return Status::InvalidArgument("shbf_a: bad replay payload");
             }
             std::unique_ptr<MembershipFilter> base;
             Status s = FilterRegistry::Global().Create("shbf_a", spec, &base);
             if (!s.ok()) return s;
             static_cast<ShbfALazyAdapter*>(base.get())
                 ->SetKeys(std::move(s1), std::move(s2));
             *out = std::move(base);
             return Status::Ok();
           }});
  if (!s.ok()) return s;

  // counting_shbf_a: incremental association twin (§4.4).
  s = r->Register(
      {.name = "counting_shbf_a",
       .family = FilterFamily::kAssociation,
       .description =
           "counting shifting Bloom filter, association (paper §4.4)",
       .capabilities = kIncrementalAdd | kRemove,
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             CountingShbfA::Params params{
                 .filter = {.num_bits = spec.num_cells,
                            .num_hashes = spec.num_hashes,
                            .hash_algorithm = spec.hash_algorithm,
                            .seed = spec.seed},
                 .counter_bits = spec.counter_bits};
             Status valid = params.Validate();
             if (!valid.ok()) return valid;
             *out = std::make_unique<CountingShbfAAdapter>("counting_shbf_a",
                                                           spec, params);
             return Status::Ok();
           },
       .deserializer =
           [](std::string_view payload,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             ByteReader reader(payload);
             FilterSpec spec;
             std::vector<std::string> s1;
             std::vector<std::string> s2;
             if (!spec_serde::ReadSpec(&reader, &spec) ||
                 !ReadKeyList(&reader, &s1) || !ReadKeyList(&reader, &s2) ||
                 !reader.AtEnd()) {
               return Status::InvalidArgument(
                   "counting_shbf_a: bad replay payload");
             }
             std::unique_ptr<MembershipFilter> base;
             Status s = FilterRegistry::Global().Create("counting_shbf_a",
                                                        spec, &base);
             if (!s.ok()) return s;
             auto* adapter = static_cast<CountingShbfAAdapter*>(base.get());
             for (const auto& key : s1) adapter->AddToS1(key);
             for (const auto& key : s2) adapter->AddToS2(key);
             *out = std::move(base);
             return Status::Ok();
           }});
  if (!s.ok()) return s;

  // ibf: num_cells split evenly between the two per-set Bloom filters.
  // Note: despite the acronym these are INDIVIDUAL (not invertible) Bloom
  // filters — two plain bit arrays — so deletion is fundamentally
  // unsupported and the entry does not advertise kRemove.
  s = r->Register(
      {.name = "ibf",
       .family = FilterFamily::kAssociation,
       .description = "individual Bloom filters baseline (paper §4.5)",
       .factory =
           [](const FilterSpec& spec, std::unique_ptr<MembershipFilter>* out) {
             size_t half = spec.num_cells / 2;
             if (half == 0) half = 1;
             IndividualBloomFilters::Params params{
                 .num_bits_s1 = half,
                 .num_bits_s2 = half,
                 .num_hashes = spec.num_hashes,
                 .hash_algorithm = spec.hash_algorithm,
                 .seed = spec.seed};
             Status valid = params.Validate();
             if (!valid.ok()) return valid;
             *out = std::make_unique<IbfAdapter>(
                 "ibf", IndividualBloomFilters(params));
             return Status::Ok();
           },
       .deserializer =
           [](std::string_view payload,
              std::unique_ptr<MembershipFilter>* out) -> Status {
             ByteReader reader(payload);
             uint64_t adds = 0;
             uint64_t blob1_size = 0;
             if (!reader.GetU64(&adds) || !reader.GetU64(&blob1_size) ||
                 blob1_size > reader.remaining()) {
               return Status::InvalidArgument("ibf: bad payload framing");
             }
             std::string blob1(blob1_size, '\0');
             if (!reader.GetBytes(blob1.data(), blob1_size)) {
               return Status::InvalidArgument("ibf: truncated payload");
             }
             std::string blob2(reader.remaining(), '\0');
             if (!blob2.empty() &&
                 !reader.GetBytes(blob2.data(), blob2.size())) {
               return Status::InvalidArgument("ibf: truncated payload");
             }
             std::optional<BloomFilter> bf1;
             std::optional<BloomFilter> bf2;
             Status s1 = BloomFilter::FromBytes(blob1, &bf1);
             if (!s1.ok()) return s1;
             Status s2 = BloomFilter::FromBytes(blob2, &bf2);
             if (!s2.ok()) return s2;
             auto adapter = std::make_unique<IbfAdapter>(
                 "ibf", IndividualBloomFilters(std::move(*bf1),
                                               std::move(*bf2)));
             adapter->RestoreAddCount(adds);
             *out = std::move(adapter);
             return Status::Ok();
           }});
  return s;
}

}  // namespace

void RegisterBuiltinFilters(FilterRegistry* registry) {
  CheckOk(RegisterAll(registry));
}

}  // namespace shbf
