// SetSlice — Flat-Bloofi (Crainiceanu & Lemire, PAPERS.md): N catalog sets
// of one bit-array geometry stored bit-sliced. Bit p of every member sits in
// one ⌈N/8⌉-byte column, so one column read tests all N sets at position p,
// and a key's answer for the whole group is the AND of the columns at its k
// probe positions (for a windowed filter: each base h_i(e) and its shifts
// h_i(e) + o_j(e); for ShBF_M one o(e) per pair), masked by a live mask. The slice is a transpose of the members' bit
// arrays, so its answers equal a per-member probe bit for bit and the FPR
// does not change. A union summary saturates as it fills; a column does not.
//
// The slice OWNS its members' bits. Build transposes each member's row in,
// 64 x 64 bits at a time, and returns one view filter per member for the
// catalog to hold in the row filter's place. A view keeps the row filter's
// outward behaviour over its slot: the registry name ("shbf_m" or "bloom"),
// num_elements(), Add/Contains answers, capabilities() (kIncrementalAdd: a
// view offers no MergeFrom) and ToBytes() bytes. Its memory_bytes() is 0:
// the bits are the slice's, and memory_bytes() below counts them once.
//
// Members are unwrapped adapters over the windowed core (WindowedFilter)
// whose entry has mapped-image hooks: `shbf_m` or `bloom`. Those hooks give
// Build each member's geometry and row (mapped_saver, called by
// MultiSetIndex::Build), and rebuild a row filter over a 64-byte-aligned
// buffer (mapped_opener): over a zero row for the probe template whose
// PrepareProbe the slice calls, and over an un-transposed slot for a view's
// ToBytes. So the adapter payload format stays in adapters.cc alone.
//
// Lifetime: the index and every view share the slice (std::shared_ptr), so
// the catalog and the index may be destroyed in either order.
//
// Thread safety: const reads (WhichSets, a view's Contains and ToBytes) may
// run concurrently. Every write — a view's Add or Clear, Drop — needs
// exclusive access to the whole slice: the views of one slice share its
// columns, so writes to two different members race with each other.

#ifndef SHBF_MULTISET_SET_SLICE_H_
#define SHBF_MULTISET_SET_SLICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_query_filter.h"
#include "core/bit_array.h"
#include "core/status.h"
#include "multiset/set_id_bitmap.h"
#include "storage/filter_image.h"

namespace shbf {

class SetSlice {
 public:
  /// One member's source: its catalog id, its bit payload (the
  /// ⌈array_total_bits / 8⌉ bytes mapped_saver hands out) and its count.
  struct Member {
    uint32_t set_id = 0;
    const uint8_t* row = nullptr;
    size_t num_elements = 0;
  };

  /// True iff `filter`'s fast path is a WindowedFilter whose probe the
  /// engine runs (k <= 64): a set a slice can hold, if it is also an
  /// unwrapped adapter whose entry has mapped-image hooks.
  static bool Sliceable(const MembershipFilter& filter);

  /// Transposes `members` (all of `geometry`, as filled by `entry`'s
  /// mapped_saver) into a new slice. `*views` receives one filter per
  /// member, in member order; member i owns slot i. The rows are only read
  /// during the call. Fails when `entry` has no mapped_opener, rejects the
  /// geometry, or builds no windowed probe.
  static Status Build(const FilterRegistry::Entry& entry,
                      const storage::ImageGeometry& geometry,
                      const std::vector<Member>& members,
                      std::shared_ptr<SetSlice>* slice,
                      std::vector<std::unique_ptr<MembershipFilter>>* views);

  SetSlice(const SetSlice&) = delete;
  SetSlice& operator=(const SetSlice&) = delete;

  size_t num_slots() const { return slot_ids_.size(); }

  /// Slots not dropped.
  size_t live_slots() const;

  /// Sets, in row i of `answers`, the id of every live member that
  /// (possibly) holds keys[i]: each key's probe is prepared once with the
  /// template, its k columns are prefetched in groups of `group_size` keys,
  /// then ANDed.
  void WhichSets(std::span<const std::string_view> keys, size_t group_size,
                 SetIdRows* answers) const;

  /// Clears `slot`'s live bit: WhichSets stops reporting it. Its column
  /// bits stay, and the slot is never reused.
  void Drop(size_t slot);

  /// Columns, live mask, slot ids and the probe template's zero row.
  size_t memory_bytes() const;

 private:
  class View;

  SetSlice(const FilterRegistry::Entry& entry,
           const storage::ImageGeometry& geometry, size_t num_slots);

  /// Copies the members' rows into the columns.
  void Transpose(const std::vector<Member>& members);

  // The view's operations on its slot.
  void SetKey(size_t slot, std::string_view key);
  bool TestKey(size_t slot, std::string_view key) const;
  void ClearSlot(size_t slot);
  std::string SlotToBytes(size_t slot, size_t num_elements) const;

  std::string name_;  ///< the registry entry's name
  FilterRegistry::MappedOpener opener_;
  storage::ImageGeometry geometry_;  ///< num_elements left 0
  size_t positions_ = 0;     ///< P = array_total_bits: columns
  size_t column_bytes_ = 0;  ///< ⌈N/8⌉
  /// P columns of column_bytes_, plus 8 guard bytes: the last word read of
  /// the last column may run past it (the live mask zeroes those bits).
  std::vector<uint8_t> columns_;
  std::vector<uint64_t> live_;     ///< one bit per slot, ⌈N/64⌉ words
  std::vector<uint32_t> slot_ids_;  ///< catalog id of each slot
  /// The probe template: a row filter over one zero row (never written).
  BitArray template_row_;
  std::unique_ptr<MembershipFilter> template_;
  /// The template's core: its k probe positions are the k columns ANDed
  /// per key.
  const WindowedFilter* probe_ = nullptr;
};

}  // namespace shbf

#endif  // SHBF_MULTISET_SET_SLICE_H_
