// FilterRegistry — string-keyed factories over the unified interface.
//
// Every filter in the library registers under a stable name ("shbf_m",
// "bloom", "cuckoo", ...) with a factory mapping a FilterSpec to a live
// MembershipFilter and a deserializer reversing ToBytes(). Drivers iterate
// Names() instead of hand-wiring each scheme — the registry is what turns
// nineteen ad-hoc classes into one framework (cf. gpdb's bloom_set registry
// and Boost.Bloom's single configurable filter template).
//
// Serialized blobs carry a self-describing envelope (magic + version + the
// registry name), so FilterRegistry::Deserialize can reconstruct a filter
// of the right type from bytes alone.

#ifndef SHBF_API_FILTER_REGISTRY_H_
#define SHBF_API_FILTER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_spec.h"
#include "api/set_query_filter.h"
#include "core/status.h"
#include "storage/filter_image.h"
#include "storage/mapped_filter.h"

namespace shbf {

/// The three query families of the paper (§1.1). Every entry is usable as a
/// MembershipFilter; multiplicity/association entries additionally implement
/// the wider interfaces.
enum class FilterFamily : uint8_t {
  kMembership = 0,
  kMultiplicity = 1,
  kAssociation = 2,
};

const char* FilterFamilyName(FilterFamily family);

class FilterRegistry {
 public:
  using Factory = std::function<Status(const FilterSpec& spec,
                                       std::unique_ptr<MembershipFilter>* out)>;
  using Deserializer =
      std::function<Status(std::string_view payload,
                           std::unique_ptr<MembershipFilter>* out)>;

  /// Mapped-image save hook: fills `header`'s geometry record from the live
  /// filter and hands back borrowed pointers to its array payload(s). Fails
  /// with kFailedPrecondition when `filter` is not the unwrapped concrete
  /// type this entry builds (engine wrappers have no flat layout).
  using MappedSaver = std::function<Status(
      const MembershipFilter& filter, storage::ImageHeader* header,
      std::vector<storage::RegionPayload>* payloads)>;

  /// Mapped-image open hook: validates the decoded geometry against what
  /// this entry would derive and builds the filter with array *views* into
  /// the mapped regions (no copy). Any mismatch is a Status naming the
  /// offending field — never a CHECK, since the bytes come off disk.
  using MappedOpener = std::function<Status(
      const storage::ImageHeader& header,
      const std::vector<storage::MappedRegionView>& regions,
      std::unique_ptr<MembershipFilter>* out)>;

  struct Entry {
    std::string name;
    FilterFamily family = FilterFamily::kMembership;
    /// One line for `shbf_cli list`: scheme + paper section.
    std::string description;
    /// Static FilterCapability bits of every instance this entry builds
    /// (kRemove / kIncrementalAdd / kMergeable); what `shbf_cli list`
    /// prints so scripts can discover e.g. remove-capable filters.
    uint32_t capabilities = kIncrementalAdd;
    Factory factory;
    Deserializer deserializer;
    /// Flat-image hooks (null = heap serde only). The hot membership read
    /// paths (bloom, shbf_m, split_block_*) register both.
    MappedSaver mapped_saver = nullptr;
    MappedOpener mapped_opener = nullptr;
  };

  /// The process-wide registry, pre-populated with every built-in filter.
  static FilterRegistry& Global();

  /// Adds an entry; fails on a duplicate or empty name.
  Status Register(Entry entry);

  bool Has(std::string_view name) const;
  const Entry* Find(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;
  std::vector<std::string> Names(FilterFamily family) const;

  /// Constructs the filter registered under `name` from `spec`, composing
  /// the engine wrappers the spec asks for (innermost first):
  ///   * auto_scale         → AutoScalingFilter      ("scaling/<name>")
  ///   * delta_capacity > 0 → DynamicFilter          ("dynamic/...")
  ///   * shards > 1         → ShardedMembershipFilter ("sharded/...", each
  ///     shard its own dynamic/scaling stack with a proportional share of
  ///     num_cells, expected_keys and delta_capacity — bounded rebuild
  ///     pause per shard)
  Status Create(std::string_view name, const FilterSpec& spec,
                std::unique_ptr<MembershipFilter>* out) const;

  /// Create + downcast for the wider interfaces; fails with
  /// kFailedPrecondition if the entry is not of the requested family.
  Status CreateMultiplicity(std::string_view name, const FilterSpec& spec,
                            std::unique_ptr<MultiplicityFilter>* out) const;
  Status CreateAssociation(std::string_view name, const FilterSpec& spec,
                           std::unique_ptr<AssociationFilter>* out) const;

  /// Wraps filter.ToBytes() in the self-describing registry envelope.
  static std::string Serialize(const MembershipFilter& filter);

  /// Reconstructs a filter from a Serialize() blob, dispatching on the name
  /// stored in the envelope.
  Status Deserialize(std::string_view bytes,
                     std::unique_ptr<MembershipFilter>* out) const;

  /// True when `name`'s entry registered the flat-image hooks.
  bool SupportsMapped(std::string_view name) const;

  /// Writes `filter` as a flat mmap-able image at `path` (versioned header
  /// page + page-aligned array regions; docs/persistence.md), crash-
  /// consistently through WriteStringToFile: temp file → fsync → rename →
  /// directory fsync. `generation` is stamped into the header for
  /// old-vs-new assertions across a crash. `filter` must be an unwrapped
  /// instance of a mapped-capable entry (a MappedFilter is unwrapped
  /// transparently).
  Status SaveMapped(const MembershipFilter& filter, const std::string& path,
                    uint64_t generation = 0) const;

  /// Opens an image read-only: maps the file, validates the header (and
  /// payload checksums when `options.verify_payload`), and serves queries
  /// straight off the mapping via a storage::MappedFilter. O(1) in filter
  /// size by default. Every failure is a Status naming `path` and the
  /// offending field.
  Status OpenMapped(const std::string& path,
                    std::unique_ptr<MembershipFilter>* out,
                    const storage::OpenOptions& options = {}) const;

 private:
  /// Builds one (unsharded) filter: the entry's factory, wrapped in the
  /// scaling and/or dynamic layers when the spec asks for them.
  Status CreateSingle(const Entry& entry, const FilterSpec& spec,
                      std::unique_ptr<MembershipFilter>* out) const;

  std::map<std::string, Entry, std::less<>> entries_;
};

/// Peels the engine-wrapper prefixes ("sharded/", "dynamic/", "scaling/")
/// off an envelope name, in any nesting order, returning the innermost base
/// name ("sharded/dynamic/shbf_x" → "shbf_x").
std::string_view StripWrapperPrefixes(std::string_view name);

/// Registers the built-in filters (defined in adapters.cc); called once by
/// FilterRegistry::Global(). Exposed for tests that build private registries.
void RegisterBuiltinFilters(FilterRegistry* registry);

}  // namespace shbf

#endif  // SHBF_API_FILTER_REGISTRY_H_
