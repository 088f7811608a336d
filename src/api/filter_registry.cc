#include "api/filter_registry.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "core/serde.h"
#include "engine/auto_scaling_filter.h"
#include "engine/dynamic_filter.h"
#include "engine/sharded_filter.h"
#include "obs/metrics.h"

namespace shbf {
namespace {

/// Registry envelope: "SHBR" magic, one version byte, a length-prefixed
/// registry name, then the entry-defined payload.
constexpr uint32_t kEnvelopeMagic = 0x52424853;  // "SHBR" little-endian
// v2: FilterSpec wire records grew batch_size/shards mid-record, shifting
// every replay-serde payload. The bump makes v1 blobs fail with a clean
// "unsupported version" instead of deserializing shifted garbage.
// v3: FilterSpec wire records grew delta_capacity/auto_scale (the mutation
// pipeline), again shifting every payload that embeds a spec.
// v4: FilterSpec wire records grew a u32 slot appended past the v3 layout
// (the block size of the since-retired cache-blocked filters; now written
// as a constant and skipped on read, see filter_spec.cc).
// v5: FilterSpec wire records grew sub_block_bits (the split-block
// variants), appended past the v4 layout. The v5 reader still accepts v4
// blobs: spec-bearing payloads deserialize under a SpecWireVersionScope so
// mid-payload ReadSpec calls skip the absent trailing field.
constexpr uint8_t kEnvelopeVersion = 5;
constexpr uint8_t kMinReadableEnvelopeVersion = 4;
constexpr size_t kMaxNameLength = 256;

/// Filters removed from the registry, each with the one to rebuild as.
/// Their serde tags stay reserved in core/serde.h.
constexpr std::pair<std::string_view, std::string_view> kRetiredFilters[] = {
    {"blocked_bloom", "split_block_bloom"},
    {"blocked_shbf_m", "split_block_shbf_m"},
};

/// NotFound for a name the registry does not know, pointing a retired
/// name at its replacement.
Status UnknownFilter(const std::string& context, std::string_view name) {
  std::string message = context + " \"" + std::string(name) + "\"";
  for (const auto& [retired, replacement] : kRetiredFilters) {
    if (name == retired) {
      message += " (retired; rebuild as " + std::string(replacement) + ")";
    }
  }
  return Status::NotFound(message);
}

bool ConsumePrefix(std::string_view* name, std::string_view prefix) {
  if (name->substr(0, prefix.size()) != prefix) return false;
  name->remove_prefix(prefix.size());
  return true;
}

/// Times one mapped-storage operation end to end (including validation and
/// checksum verification) into `<name>` — an operation counter rides in the
/// histogram's _count. Scoped so every early-return error path still records.
class StorageTimer {
 public:
  explicit StorageTimer(const char* histogram_name) {
    if (!obs::Enabled()) return;
    histogram_ =
        obs::MetricsRegistry::Global().GetHistogram(histogram_name);
    start_ = std::chrono::steady_clock::now();
  }

  ~StorageTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }

 private:
  obs::Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

std::string_view StripWrapperPrefixes(std::string_view name) {
  while (ConsumePrefix(&name, ShardedMembershipFilter::kNamePrefix) ||
         ConsumePrefix(&name, DynamicFilter::kNamePrefix) ||
         ConsumePrefix(&name, AutoScalingFilter::kNamePrefix)) {
  }
  return name;
}

const char* FilterFamilyName(FilterFamily family) {
  switch (family) {
    case FilterFamily::kMembership:   return "membership";
    case FilterFamily::kMultiplicity: return "multiplicity";
    case FilterFamily::kAssociation:  return "association";
  }
  return "invalid";
}

FilterRegistry& FilterRegistry::Global() {
  static FilterRegistry* registry = [] {
    auto* r = new FilterRegistry();
    RegisterBuiltinFilters(r);
    return r;
  }();
  return *registry;
}

Status FilterRegistry::Register(Entry entry) {
  if (entry.name.empty() || entry.name.size() > kMaxNameLength) {
    return Status::InvalidArgument("FilterRegistry: bad entry name");
  }
  if (entry.factory == nullptr) {
    return Status::InvalidArgument("FilterRegistry: entry needs a factory");
  }
  auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  if (!inserted) {
    return Status::AlreadyExists("FilterRegistry: duplicate name " +
                                 it->first);
  }
  return Status::Ok();
}

bool FilterRegistry::Has(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

const FilterRegistry::Entry* FilterRegistry::Find(std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> FilterRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::vector<std::string> FilterRegistry::Names(FilterFamily family) const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) {
    if (entry.family == family) names.push_back(name);
  }
  return names;
}

Status FilterRegistry::Create(std::string_view name, const FilterSpec& spec,
                              std::unique_ptr<MembershipFilter>* out) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return UnknownFilter("FilterRegistry: no filter named", name);
  }
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  if (spec.shards > 1) {
    // Concurrent front end: shards > 1 asks for a thread-safe hash-
    // partitioned wrapper. Each shard is an independent instance of the
    // entry (with its own dynamic/scaling stack when the spec asks for
    // one), sized so the ensemble matches the spec's total budget. The
    // delta budget splits too: each shard folds independently, so a
    // rebuild pauses one shard for 1/shards of the work while the others
    // keep serving.
    FilterSpec shard_spec = spec;
    shard_spec.shards = 1;
    shard_spec.num_cells = spec.num_cells / spec.shards;
    if (shard_spec.num_cells == 0) shard_spec.num_cells = 1;
    shard_spec.expected_keys = spec.expected_keys / spec.shards;
    if (spec.delta_capacity > 0) {
      shard_spec.delta_capacity = spec.delta_capacity / spec.shards;
      if (shard_spec.delta_capacity == 0) shard_spec.delta_capacity = 1;
    }
    std::vector<std::unique_ptr<MembershipFilter>> shards;
    shards.reserve(spec.shards);
    std::string base_name(name);
    for (uint32_t s = 0; s < spec.shards; ++s) {
      std::unique_ptr<MembershipFilter> shard;
      Status st = CreateSingle(*entry, shard_spec, &shard);
      if (!st.ok()) return st;
      if (s == 0) base_name = std::string(shard->name());
      shards.push_back(std::move(shard));
    }
    // The sharded envelope names the per-shard stack ("sharded/dynamic/
    // shbf_x"), so Deserialize can reconstruct the nesting.
    *out = std::make_unique<ShardedMembershipFilter>(
        base_name, spec.batch_size, std::move(shards));
    return Status::Ok();
  }
  return CreateSingle(*entry, spec, out);
}

Status FilterRegistry::CreateSingle(
    const Entry& entry, const FilterSpec& spec,
    std::unique_ptr<MembershipFilter>* out) const {
  // The spec handed to the base factory (and stored for replay serde) must
  // not re-ask for wrappers, or nested deserializers would wrap twice.
  FilterSpec base_spec = spec;
  base_spec.shards = 1;
  base_spec.delta_capacity = 0;
  base_spec.auto_scale = false;
  std::unique_ptr<MembershipFilter> filter;
  if (spec.auto_scale) {
    const size_t gen_capacity =
        spec.expected_keys > 0
            ? spec.expected_keys
            : std::max<size_t>(size_t{1}, spec.num_cells / 12);
    std::unique_ptr<AutoScalingFilter> scaling;
    Status s = AutoScalingFilter::Create(entry.name, base_spec, *this,
                                         gen_capacity, &scaling);
    if (!s.ok()) return s;
    filter = std::move(scaling);
  } else {
    Status s = entry.factory(base_spec, &filter);
    if (!s.ok()) return s;
  }
  if (spec.delta_capacity > 0) {
    filter = std::make_unique<DynamicFilter>(std::move(filter), base_spec,
                                             spec.delta_capacity);
  }
  *out = std::move(filter);
  return Status::Ok();
}

Status FilterRegistry::CreateMultiplicity(
    std::string_view name, const FilterSpec& spec,
    std::unique_ptr<MultiplicityFilter>* out) const {
  if (spec.shards > 1 || spec.delta_capacity > 0 || spec.auto_scale) {
    // The engine wrappers expose only the membership view; counting /
    // association calls would silently vanish behind them.
    return Status::FailedPrecondition(
        "FilterRegistry: engine wrappers (shards/delta_capacity/auto_scale) "
        "are membership-only (use Create)");
  }
  const Entry* entry = Find(name);
  if (entry != nullptr && entry->family != FilterFamily::kMultiplicity) {
    return Status::FailedPrecondition("FilterRegistry: \"" +
                                      std::string(name) +
                                      "\" is not a multiplicity filter");
  }
  std::unique_ptr<MembershipFilter> base;
  Status s = Create(name, spec, &base);
  if (!s.ok()) return s;
  auto* cast = dynamic_cast<MultiplicityFilter*>(base.get());
  if (cast == nullptr) {
    return Status::Internal("FilterRegistry: family/interface mismatch for " +
                            std::string(name));
  }
  base.release();
  out->reset(cast);
  return Status::Ok();
}

Status FilterRegistry::CreateAssociation(
    std::string_view name, const FilterSpec& spec,
    std::unique_ptr<AssociationFilter>* out) const {
  if (spec.shards > 1 || spec.delta_capacity > 0 || spec.auto_scale) {
    return Status::FailedPrecondition(
        "FilterRegistry: engine wrappers (shards/delta_capacity/auto_scale) "
        "are membership-only (use Create)");
  }
  const Entry* entry = Find(name);
  if (entry != nullptr && entry->family != FilterFamily::kAssociation) {
    return Status::FailedPrecondition("FilterRegistry: \"" +
                                      std::string(name) +
                                      "\" is not an association filter");
  }
  std::unique_ptr<MembershipFilter> base;
  Status s = Create(name, spec, &base);
  if (!s.ok()) return s;
  auto* cast = dynamic_cast<AssociationFilter*>(base.get());
  if (cast == nullptr) {
    return Status::Internal("FilterRegistry: family/interface mismatch for " +
                            std::string(name));
  }
  base.release();
  out->reset(cast);
  return Status::Ok();
}

std::string FilterRegistry::Serialize(const MembershipFilter& filter) {
  ByteWriter writer;
  writer.PutU32(kEnvelopeMagic);
  writer.PutU8(kEnvelopeVersion);
  std::string_view name = filter.name();
  writer.PutU32(static_cast<uint32_t>(name.size()));
  writer.PutBytes(name.data(), name.size());
  std::string payload = filter.ToBytes();
  writer.PutBytes(payload.data(), payload.size());
  return writer.Take();
}

Status FilterRegistry::Deserialize(
    std::string_view bytes, std::unique_ptr<MembershipFilter>* out) const {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint32_t name_length = 0;
  if (!reader.GetU32(&magic) || magic != kEnvelopeMagic) {
    return Status::InvalidArgument("FilterRegistry: bad envelope magic");
  }
  if (!reader.GetU8(&version)) {
    return Status::InvalidArgument("FilterRegistry: truncated envelope");
  }
  if (version < kMinReadableEnvelopeVersion || version > kEnvelopeVersion) {
    // The name field's layout has been stable across every envelope
    // version, so surface which filter the stale/foreign blob carries —
    // "unsupported version" alone sends the operator grepping hex dumps.
    std::string context;
    uint32_t stale_length = 0;
    if (reader.GetU32(&stale_length) && stale_length > 0 &&
        stale_length <= kMaxNameLength && stale_length <= reader.remaining()) {
      std::string stale_name(stale_length, '\0');
      if (reader.GetBytes(stale_name.data(), stale_length)) {
        context = " for filter \"" + stale_name + "\"";
      }
    }
    return Status::InvalidArgument(
        "FilterRegistry: unsupported envelope version " +
        std::to_string(version) + " (supported: " +
        std::to_string(kMinReadableEnvelopeVersion) + ".." +
        std::to_string(kEnvelopeVersion) + ")" + context +
        "; rebuild the blob with this library version");
  }
  if (!reader.GetU32(&name_length) || name_length == 0 ||
      name_length > kMaxNameLength || name_length > reader.remaining()) {
    return Status::InvalidArgument("FilterRegistry: bad envelope name");
  }
  std::string name(name_length, '\0');
  if (!reader.GetBytes(name.data(), name_length)) {
    return Status::InvalidArgument("FilterRegistry: truncated envelope");
  }
  std::string_view payload = bytes.substr(bytes.size() - reader.remaining());
  // Spec records sit mid-payload (replay adapters, wrapper internals), so
  // the envelope version must reach every nested ReadSpec call. Nested
  // envelopes (sharded shards) re-enter Deserialize and install their own
  // scope — each blob reads under its own header's version.
  spec_serde::SpecWireVersionScope spec_version_scope(version);
  const std::string_view name_view(name);
  if (name_view.substr(0, ShardedMembershipFilter::kNamePrefix.size()) ==
          ShardedMembershipFilter::kNamePrefix ||
      name_view.substr(0, DynamicFilter::kNamePrefix.size()) ==
          DynamicFilter::kNamePrefix ||
      name_view.substr(0, AutoScalingFilter::kNamePrefix.size()) ==
          AutoScalingFilter::kNamePrefix) {
    // Wrapper envelopes ("sharded/...", "dynamic/...", "scaling/...") are
    // handled structurally: the payload embeds nested envelopes this method
    // reconstructs recursively. The innermost base name must still be
    // registered — check it here, where the error can say so cleanly.
    std::string_view base = StripWrapperPrefixes(name_view);
    if (Find(base) == nullptr) {
      return UnknownFilter(
          "FilterRegistry: wrapper blob names unknown base filter", base);
    }
    if (name_view.substr(0, ShardedMembershipFilter::kNamePrefix.size()) ==
        ShardedMembershipFilter::kNamePrefix) {
      return ShardedMembershipFilter::Deserialize(name, payload, *this, out);
    }
    if (name_view.substr(0, DynamicFilter::kNamePrefix.size()) ==
        DynamicFilter::kNamePrefix) {
      return DynamicFilter::Deserialize(name, payload, *this, out);
    }
    return AutoScalingFilter::Deserialize(name, payload, *this, out);
  }
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return UnknownFilter("FilterRegistry: blob names unknown filter", name);
  }
  if (entry->deserializer == nullptr) {
    return Status::FailedPrecondition("FilterRegistry: \"" + name +
                                      "\" does not support deserialization");
  }
  return entry->deserializer(payload, out);
}

bool FilterRegistry::SupportsMapped(std::string_view name) const {
  const Entry* entry = Find(name);
  return entry != nullptr && entry->mapped_saver != nullptr &&
         entry->mapped_opener != nullptr;
}

Status FilterRegistry::SaveMapped(const MembershipFilter& filter,
                                  const std::string& path,
                                  uint64_t generation) const {
  StorageTimer timer("storage.mapped_save_us");
  // A mapped filter re-saves transparently (snapshot of an mmap-served
  // filter): the saver needs the concrete adapter it wraps.
  const MembershipFilter* source = &filter;
  if (const auto* mapped = dynamic_cast<const storage::MappedFilter*>(source)) {
    source = &mapped->inner();
  }
  const std::string name(source->name());
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("SaveMapped: no filter named \"" + name + "\"");
  }
  if (entry->mapped_saver == nullptr) {
    return Status::FailedPrecondition(
        "SaveMapped: \"" + name +
        "\" has no flat image layout (heap serde only)");
  }
  storage::ImageHeader header;
  header.generation = generation;
  header.filter_name = name;
  std::vector<storage::RegionPayload> payloads;
  Status s = entry->mapped_saver(*source, &header, &payloads);
  if (!s.ok()) return s;
  return storage::WriteImageFile(path, &header, payloads);
}

Status FilterRegistry::OpenMapped(const std::string& path,
                                  std::unique_ptr<MembershipFilter>* out,
                                  const storage::OpenOptions& options) const {
  StorageTimer timer("storage.mapped_open_us");
  storage::MappedFile file;
  Status s = storage::MappedFile::OpenReadOnly(path, &file);
  if (!s.ok()) return s;
  // Everything below reads the immutable mapping — the header is validated
  // against, and the filter built over, the same bytes (no reopen, no
  // TOCTOU window against a concurrent SaveMapped's rename).
  storage::ImageHeader header;
  s = storage::DecodeImageHeader(file.data(), file.size(), &header);
  if (!s.ok()) {
    return Status::InvalidArgument("OpenMapped " + path + ": " + s.message());
  }
  const Entry* entry = Find(header.filter_name);
  if (entry == nullptr) {
    return Status::NotFound("OpenMapped " + path +
                            ": field name: unknown filter \"" +
                            header.filter_name + "\"");
  }
  if (entry->mapped_opener == nullptr) {
    return Status::FailedPrecondition("OpenMapped " + path + ": \"" +
                                      header.filter_name +
                                      "\" has no flat image layout");
  }
  if (options.verify_payload) {
    for (size_t i = 0; i < header.regions.size(); ++i) {
      s = storage::VerifyRegionChecksum(header, i, file.data());
      if (!s.ok()) {
        return Status::InvalidArgument("OpenMapped " + path + ": " +
                                       s.message());
      }
    }
  }
  std::vector<storage::MappedRegionView> regions;
  regions.reserve(header.regions.size());
  for (const storage::RegionDesc& region : header.regions) {
    regions.push_back({file.data() + region.offset,
                       static_cast<size_t>(region.bytes)});
  }
  std::unique_ptr<MembershipFilter> inner;
  s = entry->mapped_opener(header, regions, &inner);
  if (!s.ok()) {
    return Status::InvalidArgument("OpenMapped " + path + ": " + s.message());
  }
  *out = std::make_unique<storage::MappedFilter>(
      std::move(file), std::move(inner), header.generation);
  return Status::Ok();
}

}  // namespace shbf
