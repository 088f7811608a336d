// ShardedFilter — hash-partitioned shards behind per-shard reader/writer
// locks, so one logical filter serves concurrent mixed add/query traffic
// (the ROADMAP's "heavy traffic from millions of users" direction).
//
// A dedicated selector hash (independent of every filter's own family —
// different fixed seed) maps each key to one of `num_shards` sub-filters.
// Writers take that shard's exclusive lock; readers take the shared lock, so
// queries on different shards never contend and queries on the same shard
// only contend with writers. Filters that rebuild lazily inside const
// queries (shbf_x, shbf_a adapters: MembershipFilter::IncrementalAdd() ==
// false) are detected at construction and read under the exclusive lock
// instead — correctness first, concurrency where the structure allows it.
//
// Two layers:
//   * ShardedFilter<F>           — generic template; F is any class with
//     Add/Contains (a concrete filter like ShbfM for fully inlined shards,
//     or MembershipFilter for registry-built shards).
//   * ShardedMembershipFilter    — MembershipFilter wrapper over
//     ShardedFilter<MembershipFilter> that routes batches through a
//     BatchQueryEngine; FilterRegistry::Create builds one when
//     FilterSpec::shards > 1 and FilterRegistry::Deserialize restores it
//     from its "sharded/<base>" envelope.

#ifndef SHBF_ENGINE_SHARDED_FILTER_H_
#define SHBF_ENGINE_SHARDED_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/filter_spec.h"
#include "api/set_query_filter.h"
#include "core/check.h"
#include "engine/batch_query_engine.h"
#include "hash/hash_family.h"
#include "obs/metrics.h"

namespace shbf {

/// Seed of the shard-selector hash. Fixed (not spec-derived) so a filter
/// serialized on one process partitions identically after deserialization
/// on another, and distinct from every plausible filter seed so shard
/// selection stays independent of the shards' own hash families.
inline constexpr uint64_t kShardSelectorSeed = 0x51a2dd0c7052eedULL;

/// Hash-partitioned collection of `F` sub-filters with per-shard RW locks.
///
/// Thread safety: Add/AddBatch/Clear take the affected shards' exclusive
/// locks; Contains/ContainsBatch take shared locks (exclusive for lazily-
/// built interface shards, see file comment). Distinct shards proceed in
/// parallel. The structure itself (shard count, selector) is immutable
/// after construction.
template <typename F>
class ShardedFilter {
 public:
  /// Dispatches one sub-batch to a shard's filter; replaceable so the
  /// interface-level wrapper can route through a BatchQueryEngine. The
  /// sub-batch is view-indexed: the views point into the caller's keys, so
  /// partitioning a batch across shards copies no key bytes.
  using BatchFn =
      std::function<void(const F&, const std::vector<std::string_view>&,
                         std::vector<uint8_t>*)>;

  /// Builds `num_shards` shards by calling `make_shard(i)` for each index.
  ShardedFilter(size_t num_shards,
                const std::function<std::unique_ptr<F>(size_t)>& make_shard)
      : selector_(HashAlgorithm::kMurmur3, 1, kShardSelectorSeed) {
    SHBF_CHECK(num_shards >= 1) << "ShardedFilter needs >= 1 shard";
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->filter = make_shard(i);
      SHBF_CHECK(shard->filter != nullptr);
      if constexpr (std::is_base_of_v<MembershipFilter, F>) {
        shard->exclusive_reads = !shard->filter->IncrementalAdd();
      }
      shards_.push_back(std::move(shard));
    }
    batch_fn_ = [](const F& filter, const std::vector<std::string_view>& keys,
                   std::vector<uint8_t>* results) {
      if constexpr (std::is_base_of_v<MembershipFilter, F>) {
        // The interface has a view-indexed batch entry point.
        filter.ContainsBatch(keys, results);
      } else {
        // Concrete filters take string batches; querying per key through
        // their string_view Contains avoids materializing copies.
        results->resize(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          (*results)[i] = filter.Contains(keys[i]) ? 1 : 0;
        }
      }
    };
  }

  /// The shard `key` routes to (stable across processes and serde).
  size_t ShardOf(std::string_view key) const {
    return selector_.Hash(0, key) % shards_.size();
  }

  size_t num_shards() const { return shards_.size(); }

  /// Thread-safe single-key insert.
  void Add(std::string_view key) {
    Shard& shard = *shards_[ShardOf(key)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.filter->Add(key);
  }

  /// Thread-safe bulk insert: keys are partitioned by shard first, so each
  /// shard's exclusive lock is taken once per batch, not once per key.
  void AddBatch(const std::vector<std::string>& keys) {
    std::vector<std::vector<const std::string*>> partition(shards_.size());
    for (const auto& key : keys) partition[ShardOf(key)].push_back(&key);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (partition[s].empty()) continue;
      Shard& shard = *shards_[s];
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      for (const std::string* key : partition[s]) shard.filter->Add(*key);
    }
  }

  /// Thread-safe single-key removal under the shard's exclusive lock.
  /// Only instantiable when F exposes MembershipFilter::Remove.
  Status Remove(std::string_view key) {
    Shard& shard = *shards_[ShardOf(key)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    return shard.filter->Remove(key);
  }

  /// Thread-safe single-key query.
  bool Contains(std::string_view key) const {
    const Shard& shard = *shards_[ShardOf(key)];
    bool found = false;
    WithReadLock(shard, [&] { found = shard.filter->Contains(key); });
    return found;
  }

  /// Thread-safe batched query: keys are partitioned by shard, each shard
  /// answers its sub-batch through `batch_fn` under one lock hold, and the
  /// answers scatter back into caller order. `results` is resized to
  /// `keys.size()`; entry i equals Contains(keys[i]). Partitioning gathers
  /// views into the caller's keys — no key bytes are copied.
  void ContainsBatch(const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const {
    ContainsBatchAnyKeys(keys, results);
  }

  /// View-indexed overload; the views must outlive the call.
  void ContainsBatch(const std::vector<std::string_view>& keys,
                     std::vector<uint8_t>* results) const {
    ContainsBatchAnyKeys(keys, results);
  }

  /// Sum of the shards' element counts.
  size_t num_elements() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      WithReadLock(*shard, [&] { total += shard->filter->num_elements(); });
    }
    return total;
  }

  /// Resets every shard to empty.
  void Clear() {
    for (auto& shard : shards_) {
      std::unique_lock<std::shared_mutex> lock(shard->mu);
      shard->filter->Clear();
    }
  }

  /// Runs `fn(shard_index, filter)` under the shard's shared lock (stats,
  /// serialization). Do not mutate through this.
  void ForEachShard(
      const std::function<void(size_t, const F&)>& fn) const {
    for (size_t s = 0; s < shards_.size(); ++s) {
      WithReadLock(*shards_[s], [&] { fn(s, *shards_[s]->filter); });
    }
  }

  /// Replaces the per-shard batch dispatcher (see BatchFn).
  void SetBatchFn(BatchFn fn) { batch_fn_ = std::move(fn); }

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unique_ptr<F> filter;
    /// True when the filter mutates inside const queries (lazy rebuild):
    /// reads then need the exclusive lock.
    bool exclusive_reads = false;
  };

  template <typename Keys>
  void ContainsBatchAnyKeys(const Keys& keys,
                            std::vector<uint8_t>* results) const {
    results->resize(keys.size());
    if (keys.empty()) return;
    std::vector<std::vector<size_t>> partition(shards_.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      partition[ShardOf(keys[i])].push_back(i);
    }
    // Shard balance telemetry: the per-shard partition sizes of the shards
    // that drew keys. A healthy selector keeps the histogram tight around
    // keys/shards; a heavy tail here means batch latency is pinned to one
    // hot shard.
    if (obs::Enabled()) {
      static obs::Counter* const batches =
          obs::MetricsRegistry::Global().GetCounter("sharded.batches_total");
      static obs::Histogram* const shard_keys =
          obs::MetricsRegistry::Global().GetHistogram(
              "sharded.shard_batch_keys");
      batches->Increment();
      for (const auto& part : partition) {
        if (!part.empty()) shard_keys->Record(part.size());
      }
    }
    // Shard by shard on the calling thread: the server already runs frames
    // in parallel, so shards stripe locks rather than split the batch.
    std::vector<std::string_view> sub_keys;
    std::vector<uint8_t> shard_results;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (partition[s].empty()) continue;
      sub_keys.clear();
      for (size_t i : partition[s]) sub_keys.emplace_back(keys[i]);
      const Shard& shard = *shards_[s];
      WithReadLock(shard, [&] {
        batch_fn_(*shard.filter, sub_keys, &shard_results);
      });
      for (size_t j = 0; j < partition[s].size(); ++j) {
        (*results)[partition[s][j]] = shard_results[j];
      }
    }
  }

  template <typename Fn>
  void WithReadLock(const Shard& shard, Fn&& fn) const {
    if (shard.exclusive_reads) {
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      fn();
    } else {
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      fn();
    }
  }

  HashFamily selector_;
  std::vector<std::unique_ptr<Shard>> shards_;
  BatchFn batch_fn_;
};

class FilterRegistry;

/// MembershipFilter facade over ShardedFilter<MembershipFilter>: the object
/// FilterRegistry::Create returns when FilterSpec::shards > 1. Batched
/// queries route through a BatchQueryEngine sized by FilterSpec::batch_size,
/// so each shard's sub-batch takes the non-virtual prefetching fast path
/// when its filter offers one.
class ShardedMembershipFilter : public MembershipFilter {
 public:
  /// Envelope names are "sharded/<base>"; see name().
  static constexpr std::string_view kNamePrefix = "sharded/";

  /// Wraps `shards` (all built from the same base registry entry named
  /// `base_name`). `batch_size` feeds the internal engine.
  ShardedMembershipFilter(std::string base_name, size_t batch_size,
                          std::vector<std::unique_ptr<MembershipFilter>> shards);

  /// "sharded/<base>", e.g. "sharded/shbf_m" — what the serde envelope
  /// carries and FilterRegistry::Deserialize dispatches on.
  std::string_view name() const override { return name_; }

  void Add(std::string_view key) override { sharded_.Add(key); }

  /// Thread-safe bulk insert (not part of MembershipFilter; the sharded
  /// wrapper's reason to exist).
  void AddBatch(const std::vector<std::string>& keys) {
    sharded_.AddBatch(keys);
  }

  bool Contains(std::string_view key) const override {
    return sharded_.Contains(key);
  }

  void ContainsBatch(const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const override {
    sharded_.ContainsBatch(keys, results);
  }

  void ContainsBatch(const std::vector<std::string_view>& keys,
                     std::vector<uint8_t>* results) const override {
    sharded_.ContainsBatch(keys, results);
  }

  /// Routes to the owning shard under its exclusive lock; the shards must
  /// advertise kRemove (counting bases, or any base behind the dynamic
  /// wrapper).
  Status Remove(std::string_view key) override {
    if ((capabilities_ & kRemove) == 0) {
      return Status::FailedPrecondition(
          name_ + ": shards do not support Remove");
    }
    return sharded_.Remove(key);
  }

  /// Intersection of the shards' capability bits. kMergeable is always
  /// masked out: merging sharded ensembles is not implemented.
  uint32_t capabilities() const override { return capabilities_; }

  bool IncrementalAdd() const override {
    return (capabilities_ & kIncrementalAdd) != 0;
  }

  size_t num_elements() const override { return sharded_.num_elements(); }
  size_t memory_bytes() const override;
  void Clear() override { sharded_.Clear(); }

  /// Per-shard registry envelopes, length-prefixed.
  std::string ToBytes() const override;

  /// Reconstructs from a ToBytes() payload; `envelope_name` is the full
  /// "sharded/<base>" name from the registry envelope and `registry`
  /// resolves the per-shard blobs. Called by FilterRegistry::Deserialize.
  static Status Deserialize(std::string_view envelope_name,
                            std::string_view payload,
                            const FilterRegistry& registry,
                            std::unique_ptr<MembershipFilter>* out);

  size_t num_shards() const { return sharded_.num_shards(); }
  const ShardedFilter<MembershipFilter>& sharded() const { return sharded_; }

 private:
  std::string name_;
  size_t batch_size_;
  BatchQueryEngine engine_;
  ShardedFilter<MembershipFilter> sharded_;
  uint32_t capabilities_ = 0;
};

}  // namespace shbf

#endif  // SHBF_ENGINE_SHARDED_FILTER_H_
