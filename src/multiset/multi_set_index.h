// MultiSetIndex — "which of my N sets contain key k" over a SetCatalog,
// with slices where the catalog allows them and a per-set scan everywhere
// else.
//
// Every layer below answers questions about ONE set at a time; a
// deployment holding hundreds of named filters would pay N probes per key
// for the multi-set question. Build groups the catalog's unwrapped sets by
// geometry, and every group of two or more becomes one slice:
//
//   * `shbf_m` and `bloom` sets of k <= 64, grouped by registry name and
//     the image geometry their mapped saver fills, form a SetSlice
//     (set_slice.h), Flat-Bloofi (Crainiceanu & Lemire, PAPERS.md): bit p
//     of all its members in one column, so a key's answer for the group is
//     the AND of its k columns. The slice owns those bits; Build swaps each
//     sliced set's catalog filter for a view over its slot.
//   * `cuckoo` sets whose bucket is a whole number of bytes, grouped by
//     CuckooSlice::Geometry, form a CuckooSlice (cuckoo_slice.h): bucket i
//     of every member side by side, so a key's answer for the group comes
//     from two rows. Build moves each member's slots into its lane; the
//     catalog keeps the same adapters, now running over their lanes.
//
// Either way memory is not doubled and the catalog (Contains, Serialize,
// INDEX_ADD, num_elements) behaves as before.
//
// Every other set — the other non-bit-array backends, wrapped sets
// (`dynamic/`, `sharded/`, `scaling/`), split-block sets, and sets whose
// geometry no other set shares — stays on the scan: one engine batch
// resolve per set. `force_scan` puts every set there; it is the reference
// the bench and the smoke gates compare against.
//
// Lifetime: the index and the views (or lane adapters) share each slice's
// bits, so the catalog and the index may be destroyed in either order.
// Build replaces the sliced sets' filters or moves their slots, so an index
// built earlier over the same catalog must not be used afterwards; a later
// Build finds views and lane adapters, which it scans.
//
// Thread safety: queries are const and safe to run concurrently AFTER
// PrepareForConstReads(); AddKey / AddKeys / RemoveSet require exclusive
// access (the server wraps the index in a shared_mutex). The index holds
// raw pointers into the catalog's filters: RemoveSet must be told about a
// drop BEFORE the catalog frees the filter, and the catalog must outlive
// every query.

#ifndef SHBF_MULTISET_MULTI_SET_INDEX_H_
#define SHBF_MULTISET_MULTI_SET_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/set_catalog.h"
#include "core/status.h"
#include "engine/batch_query_engine.h"
#include "multiset/cuckoo_slice.h"
#include "multiset/set_id_bitmap.h"
#include "multiset/set_slice.h"

namespace shbf {

struct MultiSetIndexOptions {
  /// Unused since slices replaced the summary tree; kept so that existing
  /// callers that still assign it compile.
  size_t branching = 8;

  /// Keys whose probes are prepared and prefetched before any is resolved,
  /// in the slices and in the scan's engine passes.
  size_t batch_size = 32;

  /// Slice nothing: every set becomes a scan set. This is the linear
  /// brute-force reference the bench and the smoke gates compare against.
  bool force_scan = false;
};

class MultiSetIndex {
 public:
  /// Builds the index over every set in `catalog`, which must outlive
  /// every query and not add or drop sets behind the index's back (route
  /// maintenance through AddKey/RemoveSet). Replaces the filter of every
  /// sliced set with a view over its slice. Fails on an empty catalog.
  static Status Build(SetCatalog* catalog, const MultiSetIndexOptions& options,
                      std::unique_ptr<MultiSetIndex>* out);

  /// The answers' universe (catalog->id_bound() at build time).
  size_t id_bound() const { return id_bound_; }

  /// The served form. `out` is reset to keys.size() zero rows of id_bound()
  /// ids, and row i receives bit s iff set s (possibly) contains keys[i] —
  /// exactly the bits a brute-force Contains loop over the live sets would
  /// set (no false negatives; the same false positives as the member
  /// filters). Each slice, then each scan set, answers the whole batch. The
  /// views must stay valid for the duration of the call.
  void WhichSetsBatch(const std::vector<std::string_view>& keys,
                      SetIdRows* out) const;
  void WhichSetsBatch(const std::vector<std::string>& keys,
                      SetIdRows* out) const;

  /// The same answers one bitmap per key: `out` is resized to keys.size()
  /// and entry i receives row i, reusing the bitmaps' storage.
  void WhichSetsBatch(const std::vector<std::string_view>& keys,
                      std::vector<SetIdBitmap>* out) const;
  void WhichSetsBatch(const std::vector<std::string>& keys,
                      std::vector<SetIdBitmap>* out) const;

  /// A one-key WhichSetsBatch.
  void WhichSets(std::string_view key, SetIdBitmap* out) const;

  /// Incremental maintenance: adds `key` to set `set_id`'s filter; for a
  /// sliced set, the view sets the key's k bits in its slot, and a cuckoo
  /// lane inserts into its lane. Queries report the key once
  /// PrepareForConstReads() has run: an add that fills a cuckoo lane's
  /// stash or side table puts the key where only that call makes the
  /// slice look. kNotFound for a dead or unknown id.
  Status AddKey(uint32_t set_id, std::string_view key);
  Status AddKeys(uint32_t set_id, const std::vector<std::string>& keys);

  /// Detaches a set: its id stops being reported (a sliced set's live bit
  /// is cleared) and its filter pointer is dropped. Call BEFORE
  /// SetCatalog::DropSet frees the filter.
  Status RemoveSet(uint32_t set_id);

  /// Completes deferred (lazy) builds in every scan set and recomputes
  /// each cuckoo slice's exception lanes, so subsequent const queries are
  /// pure (shared-lock safe) and exact. Call after every maintenance burst,
  /// from the writer section.
  void PrepareForConstReads();

  struct Stats {
    size_t sets = 0;            ///< live sets reported by queries
    size_t slices = 0;          ///< slices of either kind probed per query
    size_t cuckoo_slices = 0;   ///< of which CuckooSlices
    size_t sliced_sets = 0;     ///< live sets answered from a slice
    size_t scan_sets = 0;       ///< live sets probed one by one
    /// Slices with their probe templates; a view or a lane adapter reports
    /// none of these bytes, so this plus SetCatalog::memory_bytes() counts
    /// every byte once.
    size_t memory_bytes = 0;
    /// Cumulative per-key probes: one per slice, cuckoo exception lane and
    /// scan set consulted.
    uint64_t probes = 0;
  };
  Stats stats() const;

 private:
  static constexpr size_t kNoSlice = static_cast<size_t>(-1);

  /// A live set: a scan set's filter, or a sliced set's slice and slot
  /// (its lane, for a cuckoo slice).
  struct Member {
    MembershipFilter* filter = nullptr;  ///< the catalog's (a view if sliced)
    size_t slice = kNoSlice;             ///< index into slices_
    size_t cuckoo_slice = kNoSlice;      ///< index into cuckoo_slices_
    size_t slot = 0;
  };

  /// A set probed on its own.
  struct ScanSet {
    MembershipFilter* filter = nullptr;
    uint32_t set_id = 0;
  };

  MultiSetIndex() = default;

  /// Slices each group of two or more unwrapped shbf_m, bloom or sliceable
  /// cuckoo sets of one geometry; every other set becomes a scan set.
  Status SliceCatalog(SetCatalog* catalog);

  /// Moves each group of two or more sliceable cuckoo sets into a
  /// CuckooSlice.
  Status SliceCuckooSets(
      const std::map<CuckooSlice::Geometry, std::vector<CuckooSlice::Member>>&
          groups);

  MultiSetIndexOptions options_;
  BatchQueryEngine engine_{BatchOptions{}};
  size_t id_bound_ = 0;

  std::vector<std::shared_ptr<SetSlice>> slices_;
  std::vector<std::unique_ptr<CuckooSlice>> cuckoo_slices_;
  std::vector<ScanSet> scan_;
  std::map<uint32_t, Member> members_;  ///< live sets by id

  /// Cumulative key-probe counter (Stats::probes).
  mutable std::atomic<uint64_t> probes_{0};
};

}  // namespace shbf

#endif  // SHBF_MULTISET_MULTI_SET_INDEX_H_
