// CuckooSlice — N catalog `cuckoo` sets of one geometry in one bucket-
// interleaved slot table, so a key's answer for all N comes from two rows.
//
// Sets of one cuckoo geometry (hash family, seed, bucket count, bucket
// size b, fingerprint width f) compute the same two candidate buckets and
// the same fingerprint for a key. The slice stores bucket i of lane l (its
// l-th set) at slots [(i·N + l)·b, +b) of one table, so a key's buckets in
// all N sets are two contiguous rows of N·b·f bits (96 bytes each for 16
// sets at the default b = 4, f = 12). WhichSets prepares each key's probe
// once, prefetches both rows, then tests each lane's two buckets with one
// unaligned 8-byte load and one SWAR compare each. Only geometries whose
// bucket is a whole number of bytes, at most 7, slice (Sliceable).
//
// The slice moves the bits; it does not copy them. Build moves each
// member's slots into its lane (CuckooFilter::MoveToLane), and the catalog
// keeps the same CuckooAdapter objects, now running over their lanes: one
// cuckoo implementation inserts, kicks, stashes, deletes and serializes,
// whether or not the set is sliced. A lane adapter's memory_bytes() leaves
// the table out, and memory_bytes() below counts it once.
//
// Exceptions: a set whose victim stash is used, or whose adapter keeps
// keys in its overfull side table, can hold a key its buckets do not
// show. For those lanes WhichSets also calls the set's own Contains.
// PrepareForConstReads() recomputes that list; run it after every write.
//
// Thread safety: const reads (WhichSets, the adapters' Contains and
// ToBytes) may run concurrently. Every write — an adapter's Add, Remove or
// Clear, Drop, PrepareForConstReads — needs exclusive access to the whole
// slice: a kick may move fingerprints anywhere in its lane, and the lanes
// share the table's words.

#ifndef SHBF_MULTISET_CUCKOO_SLICE_H_
#define SHBF_MULTISET_CUCKOO_SLICE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "api/cuckoo_adapter.h"
#include "baselines/cuckoo_filter.h"
#include "core/packed_counter_array.h"
#include "core/status.h"
#include "multiset/set_id_bitmap.h"

namespace shbf {

class CuckooSlice {
 public:
  struct Member {
    uint32_t set_id = 0;
    CuckooAdapter* adapter = nullptr;  ///< the catalog's; must outlive use
  };

  /// What the lanes of one slice share: filters of equal geometry compute
  /// the same two buckets and fingerprint for every key, and lay their
  /// buckets out alike. MultiSetIndex groups cuckoo sets by it.
  struct Geometry {
    HashAlgorithm algorithm;
    uint64_t seed;
    size_t num_buckets;
    uint32_t fingerprint_bits;
    uint32_t bucket_size;

    static Geometry Of(const CuckooFilter& filter);
    auto operator<=>(const Geometry&) const = default;
  };

  /// True iff `filter` can join a slice: it is standalone (lane 0 of 1)
  /// and its bucket, b·f bits, is a whole number of bytes, at most 7.
  static bool Sliceable(const CuckooFilter& filter);

  /// Moves `members` (two or more Sliceable filters of one Geometry) into
  /// a new slice, member i in lane i.
  static Status Build(const std::vector<Member>& members,
                      std::unique_ptr<CuckooSlice>* slice);

  CuckooSlice(const CuckooSlice&) = delete;
  CuckooSlice& operator=(const CuckooSlice&) = delete;

  size_t num_lanes() const { return lane_ids_.size(); }

  /// Lanes not dropped.
  size_t live_lanes() const;

  /// Live lanes whose set WhichSets also asks through Contains.
  size_t exception_lanes() const { return exceptions_.size(); }

  /// Sets, in row i of `answers`, the id of every live member that
  /// (possibly) holds keys[i]: each key's probe is prepared once, both its
  /// rows are prefetched in groups of `group_size` keys, then every lane's
  /// two buckets are tested.
  void WhichSets(std::span<const std::string_view> keys, size_t group_size,
                 SetIdRows* answers) const;

  /// Clears `lane`'s live bit and forgets its adapter: WhichSets stops
  /// reporting it. Its slots stay, and the lane is never reused.
  void Drop(size_t lane);

  /// Recomputes the exception lanes (see the file comment).
  void PrepareForConstReads();

  /// The table, live mask and lane ids.
  size_t memory_bytes() const;

 private:
  CuckooSlice(const CuckooFilter& first, size_t lanes);

  /// Bit j of the result is set iff lane `first` + j's bucket in `row1`
  /// or in `row2` holds the fingerprint `pattern` repeats, for j < count.
  uint64_t Hits(const uint8_t* row1, const uint8_t* row2, size_t first,
                size_t count, uint64_t pattern) const;

  void PrefetchRow(const uint8_t* row) const;

  std::shared_ptr<PackedCounterArray> table_;
  /// Prepares the probes: a filter over lane 0 that never writes.
  CuckooFilter template_;
  size_t bucket_bytes_ = 0;  ///< b·f / 8
  size_t row_bytes_ = 0;     ///< N·b·f / 8
  uint64_t lane_ones_ = 0;   ///< a 1 in the low bit of each of b slots
  uint64_t highs_ = 0;       ///< the high bit of each of b slots
  std::vector<uint64_t> live_;       ///< one bit per lane, ⌈N/64⌉ words
  std::vector<uint32_t> lane_ids_;   ///< catalog id of each lane
  std::vector<const CuckooAdapter*> adapters_;  ///< null once dropped
  std::vector<uint32_t> exceptions_;  ///< ascending live lanes
};

}  // namespace shbf

#endif  // SHBF_MULTISET_CUCKOO_SLICE_H_
