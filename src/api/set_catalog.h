// SetCatalog — the named collection of filters the multi-set subsystem
// (src/multiset/) indexes: "which of my N sets contain key k" needs the N
// sets to be first-class objects with stable identities, not ad-hoc locals.
//
// Each set is a (stable id, unique name, MembershipFilter) triple. Ids are
// assigned monotonically and never reused — a dropped set's id stays dead —
// so a SetIdBitmap produced before a drop still names the same sets after
// it, and serialized catalogs re-open with identical ids on any machine.
//
// The catalog serializes into its own self-describing envelope ("SHBC"
// magic + version) whose per-set payloads are nested FilterRegistry
// envelopes, so any registered backend (or wrapper stack) can be a set.
// Deserialize validates counts and lengths against the remaining input
// before any allocation, mirroring serde::ReadKeyList's count-bomb guard.

#ifndef SHBF_API_SET_CATALOG_H_
#define SHBF_API_SET_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_query_filter.h"
#include "core/status.h"

namespace shbf {

class SetCatalog {
 public:
  /// Hard ceilings the deserializer enforces before allocating. kMaxSets
  /// bounds the whole id SPACE, not just the live count: ids are never
  /// reused, so id_bound() — and every SetIdBitmap sized from it — stays
  /// under kMaxSets for the catalog's entire add/drop history.
  static constexpr size_t kMaxSets = size_t{1} << 20;
  static constexpr size_t kMaxNameBytes = 256;

  struct SetEntry {
    uint32_t id = 0;
    std::string name;
    std::unique_ptr<MembershipFilter> filter;
  };

  SetCatalog() = default;
  SetCatalog(SetCatalog&&) = default;
  SetCatalog& operator=(SetCatalog&&) = default;
  SetCatalog(const SetCatalog&) = delete;
  SetCatalog& operator=(const SetCatalog&) = delete;

  /// Registers `filter` under `name` with the next free id (returned via
  /// `*id` when non-null). Fails on an empty/oversized/duplicate name, a
  /// null filter, or a full catalog.
  Status AddSet(std::string name, std::unique_ptr<MembershipFilter> filter,
                uint32_t* id = nullptr);

  /// Removes the set; its id is never reused.
  Status DropSet(std::string_view name);

  /// Renames a set in place (same id, same filter).
  Status RenameSet(std::string_view from, std::string to);

  const SetEntry* Find(std::string_view name) const;
  const SetEntry* FindById(uint32_t id) const;

  /// Mutable filter access for maintenance paths (INDEX_ADD); nullptr for a
  /// dead id.
  MembershipFilter* MutableFilter(uint32_t id);

  /// Swaps set `id`'s filter for `filter` (same id, same name) and frees the
  /// old one. MultiSetIndex::Build uses it to hand a sliced set's bits to
  /// its slice. Fails on a dead id or a null filter.
  Status ReplaceFilter(uint32_t id, std::unique_ptr<MembershipFilter> filter);

  size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  /// One past the largest id ever assigned — the SetIdBitmap universe.
  uint32_t id_bound() const { return next_id_; }

  /// Entries ordered by id (the canonical iteration order everywhere:
  /// serde, index build, LIST responses).
  std::vector<const SetEntry*> Entries() const;

  /// Sum of the member filters' footprints.
  size_t memory_bytes() const;

  /// Self-describing blob: catalog envelope wrapping one nested
  /// FilterRegistry envelope per set.
  std::string Serialize() const;

  /// Reconstructs a Serialize() blob; every per-set payload dispatches
  /// through `registry`. Returns Status (never crashes) on truncated,
  /// corrupt or count-bombed input; `*out` is untouched on failure.
  static Status Deserialize(std::string_view bytes,
                            const FilterRegistry& registry, SetCatalog* out);

 private:
  uint32_t next_id_ = 0;
  /// Owning map, ordered by id; names index into it.
  std::map<uint32_t, SetEntry> by_id_;
  std::map<std::string, uint32_t, std::less<>> id_by_name_;
};

}  // namespace shbf

#endif  // SHBF_API_SET_CATALOG_H_
