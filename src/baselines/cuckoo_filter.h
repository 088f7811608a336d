// Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher) — cited in §2.1 as a
// space/time-competitive membership structure whose cost is a "non-negligible
// probability of failing when inserting". Implemented as a related-work
// comparator for the membership benches and to exercise that failure mode in
// tests.
//
// Partial-key cuckoo hashing: each element stores an f-bit fingerprint in one
// of two buckets, i1 = H(x) and i2 = i1 XOR H(fingerprint); displaced
// fingerprints kick existing ones, up to max_kicks before declaring the
// filter full. Supports deletion (unlike a plain BF).
//
// Lanes: a filter's slots live in a table that may interleave N filters of
// one geometry. Bucket i of lane l holds slots [(i·N + l)·b, +b), so a
// key's candidate buckets in all N filters form two contiguous rows of N·b
// slots (multiset/cuckoo_slice.h reads them). A standalone filter is lane
// 0 of its own 1-lane table. A filter in a lane inserts, kicks, stashes,
// deletes and clears only its own lane, and ToBytes writes the lane out in
// the standalone layout, so its answers and bytes do not depend on where
// its slots live.

#ifndef SHBF_BASELINES_CUCKOO_FILTER_H_
#define SHBF_BASELINES_CUCKOO_FILTER_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/packed_counter_array.h"
#include "core/query_stats.h"
#include "core/rng.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class CuckooFilter {
 public:
  struct Params {
    size_t num_buckets = 0;        ///< rounded up to a power of two
    uint32_t bucket_size = 4;      ///< slots per bucket (the paper's "(2,4)")
    uint32_t fingerprint_bits = 12;
    uint32_t max_kicks = 500;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  explicit CuckooFilter(const Params& params);

  /// A filter over lane `lane` of `table`, a table of `lanes` interleaved
  /// filters of `params`' geometry, whose slots are taken as they are; the
  /// item count and the stash start empty. CuckooSlice's probe template is
  /// one, and never writes.
  CuckooFilter(const Params& params, std::shared_ptr<PackedCounterArray> table,
               uint32_t lanes, uint32_t lane);

  // A copy would share the table; move the filter, or ToBytes it.
  CuckooFilter(const CuckooFilter&) = delete;
  CuckooFilter& operator=(const CuckooFilter&) = delete;
  CuckooFilter(CuckooFilter&&) = default;
  CuckooFilter& operator=(CuckooFilter&&) = default;

  /// Inserts `key`; returns false iff the filter is full (insertion failure
  /// after max_kicks displacements). The last displaced fingerprint is kept
  /// in a one-entry victim stash so queries stay false-negative-free; once
  /// the stash is occupied all further inserts fail until a delete frees it.
  bool Insert(std::string_view key);

  /// Membership query. No false negatives for successfully inserted keys.
  bool Contains(std::string_view key) const {
    Probe probe;
    PrepareProbe(key, &probe);
    return ResolveProbe(probe);
  }
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// Precomputed query state for one key: both candidate buckets and the
  /// fingerprint (all three hashes, no slot memory touched). The batch
  /// engine prepares a group of these, prefetches their buckets, then
  /// resolves; Contains is the same two steps back to back.
  struct Probe {
    size_t i1;
    size_t i2;
    uint64_t fingerprint;
  };

  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch both buckets `probe` reads.
  void PrefetchProbe(const Probe& probe) const {
    const uint64_t* words = table_->words();
    __builtin_prefetch(words + FirstSlot(probe.i1) * fingerprint_bits_ / 64,
                       0, 1);
    __builtin_prefetch(words + FirstSlot(probe.i2) * fingerprint_bits_ / 64,
                       0, 1);
  }

  /// Resolves a prepared probe (victim stash included); identical answer
  /// to Contains(key).
  bool ResolveProbe(const Probe& probe) const {
    return InVictimStash(probe) ||
           BucketContains(probe.i1, probe.fingerprint) ||
           BucketContains(probe.i2, probe.fingerprint);
  }

  /// Deletes one copy of `key`'s fingerprint; returns false if absent.
  bool Delete(std::string_view key);

  size_t num_buckets() const { return num_buckets_; }
  uint32_t bucket_size() const { return bucket_size_; }
  uint32_t fingerprint_bits() const { return fingerprint_bits_; }
  HashAlgorithm hash_algorithm() const { return family_.algorithm(); }
  uint64_t seed() const { return family_.master_seed(); }
  /// The parameters this filter was built with (num_buckets rounded).
  Params params() const;
  /// Filters in this filter's table: 1 for a standalone filter.
  uint32_t lanes() const { return lanes_; }
  size_t num_items() const { return num_items_; }
  double LoadFactor() const {
    return static_cast<double>(num_items_) /
           (static_cast<double>(num_buckets_) * bucket_size_);
  }
  /// The bits of this filter's slots (its lane's share of a shared table).
  size_t memory_bits() const {
    return num_buckets_ * bucket_size_ * fingerprint_bits_;
  }

  /// True iff an insertion failure parked a fingerprint in the stash.
  bool HasVictim() const { return victim_.used; }

  /// Clears to the empty filter (all slots of its lane free, stash
  /// emptied).
  void Clear();

  /// Moves this filter's slots into lane `lane` of `table`, a table of
  /// `lanes` interleaved filters of this geometry, which it then shares;
  /// its own table is freed. Answers and ToBytes do not change.
  void MoveToLane(std::shared_ptr<PackedCounterArray> table, uint32_t lanes,
                  uint32_t lane);

  /// Serializes parameters + slot payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<CuckooFilter>* out);

 private:
  struct Victim {
    bool used = false;
    size_t index = 0;
    uint64_t fingerprint = 0;
  };

  /// True iff the stash holds `probe`'s fingerprint in one of its buckets.
  bool InVictimStash(const Probe& probe) const {
    return victim_.used && victim_.fingerprint == probe.fingerprint &&
           (victim_.index == probe.i1 || victim_.index == probe.i2);
  }
  size_t AltIndex(size_t index, uint64_t fingerprint) const;
  /// The table index of `bucket`'s first slot in lane `lane` of a table of
  /// `lanes` filters; FirstSlot is this filter's own lane. Every slot
  /// address goes through here.
  size_t FirstSlotIn(uint32_t lanes, uint32_t lane, size_t bucket) const {
    return (bucket * lanes + lane) * bucket_size_;
  }
  size_t FirstSlot(size_t bucket) const {
    return FirstSlotIn(lanes_, lane_, bucket);
  }
  /// True iff one of `bucket`'s slots holds `fingerprint` (never 0, so a
  /// free slot never matches): every slot compared in one SWAR test.
  bool BucketContains(size_t bucket, uint64_t fingerprint) const {
    return table_->AnyEqual(FirstSlot(bucket), bucket_size_, fingerprint);
  }
  bool TryInsertIntoBucket(size_t bucket, uint64_t fingerprint);
  bool RemoveFromBucket(size_t bucket, uint64_t fingerprint);
  /// CHECKs that `table` holds `lanes` filters of this geometry.
  void CheckFits(const PackedCounterArray* table, uint32_t lanes,
                 uint32_t lane) const;
  /// Copies this filter's slots into lane `lane` of `table` (`lanes`
  /// filters of this geometry).
  void CopySlotsTo(PackedCounterArray* table, uint32_t lanes,
                   uint32_t lane) const;

  HashFamily family_;  // 0: bucket index; 1: fingerprint; 2: fp→offset
  size_t num_buckets_;
  uint32_t bucket_size_;
  uint32_t fingerprint_bits_;
  uint32_t max_kicks_;
  size_t num_items_ = 0;
  mutable Rng kick_rng_;
  Victim victim_;
  /// Fingerprint per slot, 0 = empty: this filter's own table (lanes_ = 1)
  /// or one it shares with the other lanes.
  std::shared_ptr<PackedCounterArray> table_;
  uint32_t lanes_ = 1;
  uint32_t lane_ = 0;
};

}  // namespace shbf

#endif  // SHBF_BASELINES_CUCKOO_FILTER_H_
