#include "api/set_catalog.h"

#include <utility>

#include "core/serde.h"

namespace shbf {
namespace {

/// Catalog envelope: "SHBC" magic, one version byte, next_id, set count,
/// then per set: id, name string, length-prefixed nested registry envelope.
constexpr uint32_t kCatalogMagic = 0x43424853;  // "SHBC" little-endian
constexpr uint8_t kCatalogVersion = 1;

/// Bytes a set record cannot be smaller than (id + name length + blob
/// length), the divisor of the count-bomb check.
constexpr size_t kMinSetRecordBytes = 4 + 4 + 4;

}  // namespace

Status SetCatalog::AddSet(std::string name,
                          std::unique_ptr<MembershipFilter> filter,
                          uint32_t* id) {
  if (name.empty() || name.size() > kMaxNameBytes) {
    return Status::InvalidArgument("SetCatalog: bad set name length " +
                                   std::to_string(name.size()));
  }
  if (filter == nullptr) {
    return Status::InvalidArgument("SetCatalog: null filter for set '" +
                                   name + "'");
  }
  if (id_by_name_.find(name) != id_by_name_.end()) {
    return Status::AlreadyExists("SetCatalog: set '" + name +
                                 "' already exists");
  }
  // Ids are never reused, so the id space itself is consumable: bounding
  // next_id (not just the live count) keeps id_bound() — and with it every
  // SetIdBitmap allocation downstream — under kMaxSets forever.
  if (by_id_.size() >= kMaxSets || next_id_ >= kMaxSets) {
    return Status::ResourceExhausted("SetCatalog: catalog id space is full");
  }
  const uint32_t assigned = next_id_++;
  SetEntry entry;
  entry.id = assigned;
  entry.name = name;
  entry.filter = std::move(filter);
  by_id_.emplace(assigned, std::move(entry));
  id_by_name_.emplace(std::move(name), assigned);
  if (id != nullptr) *id = assigned;
  return Status::Ok();
}

Status SetCatalog::DropSet(std::string_view name) {
  auto it = id_by_name_.find(name);
  if (it == id_by_name_.end()) {
    return Status::NotFound("SetCatalog: no set named '" + std::string(name) +
                            "'");
  }
  by_id_.erase(it->second);
  id_by_name_.erase(it);
  return Status::Ok();
}

Status SetCatalog::RenameSet(std::string_view from, std::string to) {
  if (to.empty() || to.size() > kMaxNameBytes) {
    return Status::InvalidArgument("SetCatalog: bad new name length " +
                                   std::to_string(to.size()));
  }
  auto it = id_by_name_.find(from);
  if (it == id_by_name_.end()) {
    return Status::NotFound("SetCatalog: no set named '" + std::string(from) +
                            "'");
  }
  if (from == to) return Status::Ok();
  if (id_by_name_.find(to) != id_by_name_.end()) {
    return Status::AlreadyExists("SetCatalog: set '" + to +
                                 "' already exists");
  }
  const uint32_t id = it->second;
  id_by_name_.erase(it);
  id_by_name_.emplace(to, id);
  by_id_.at(id).name = std::move(to);
  return Status::Ok();
}

const SetCatalog::SetEntry* SetCatalog::Find(std::string_view name) const {
  auto it = id_by_name_.find(name);
  return it == id_by_name_.end() ? nullptr : &by_id_.at(it->second);
}

const SetCatalog::SetEntry* SetCatalog::FindById(uint32_t id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &it->second;
}

MembershipFilter* SetCatalog::MutableFilter(uint32_t id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second.filter.get();
}

Status SetCatalog::ReplaceFilter(uint32_t id,
                                 std::unique_ptr<MembershipFilter> filter) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("SetCatalog: no set with id " +
                            std::to_string(id));
  }
  if (filter == nullptr) {
    return Status::InvalidArgument("SetCatalog: null filter for set '" +
                                   it->second.name + "'");
  }
  it->second.filter = std::move(filter);
  return Status::Ok();
}

std::vector<const SetCatalog::SetEntry*> SetCatalog::Entries() const {
  std::vector<const SetEntry*> entries;
  entries.reserve(by_id_.size());
  for (const auto& [id, entry] : by_id_) entries.push_back(&entry);
  return entries;  // std::map iterates in id order
}

size_t SetCatalog::memory_bytes() const {
  size_t total = 0;
  for (const auto& [id, entry] : by_id_) total += entry.filter->memory_bytes();
  return total;
}

std::string SetCatalog::Serialize() const {
  ByteWriter writer;
  writer.PutU32(kCatalogMagic);
  writer.PutU8(kCatalogVersion);
  writer.PutU32(next_id_);
  writer.PutU32(static_cast<uint32_t>(by_id_.size()));
  for (const auto& [id, entry] : by_id_) {
    writer.PutU32(id);
    writer.PutU32(static_cast<uint32_t>(entry.name.size()));
    writer.PutBytes(entry.name.data(), entry.name.size());
    const std::string blob = FilterRegistry::Serialize(*entry.filter);
    writer.PutU32(static_cast<uint32_t>(blob.size()));
    writer.PutBytes(blob.data(), blob.size());
  }
  return writer.Take();
}

Status SetCatalog::Deserialize(std::string_view bytes,
                               const FilterRegistry& registry,
                               SetCatalog* out) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint32_t next_id = 0;
  uint32_t count = 0;
  if (!reader.GetU32(&magic) || magic != kCatalogMagic) {
    return Status::InvalidArgument("SetCatalog: bad catalog magic");
  }
  if (!reader.GetU8(&version)) {
    return Status::InvalidArgument("SetCatalog: truncated catalog envelope");
  }
  if (version != kCatalogVersion) {
    return Status::InvalidArgument(
        "SetCatalog: unsupported catalog version " + std::to_string(version) +
        " (supported: " + std::to_string(kCatalogVersion) +
        "); rebuild the catalog with this library version");
  }
  if (!reader.GetU32(&next_id) || !reader.GetU32(&count)) {
    return Status::InvalidArgument("SetCatalog: truncated catalog envelope");
  }
  // id_bound() sizes every SetIdBitmap the index hands out, so a forged
  // next_id is a memory-amplification bomb even with one valid record.
  if (next_id > kMaxSets) {
    return Status::InvalidArgument(
        "SetCatalog: id bound " + std::to_string(next_id) +
        " exceeds the catalog id-space limit");
  }
  // Count-bomb guard: every record needs at least its fixed fields, so a
  // crafted count the input cannot satisfy is rejected before any loop.
  if (count > kMaxSets || count > next_id ||
      count > reader.remaining() / kMinSetRecordBytes) {
    return Status::InvalidArgument(
        "SetCatalog: set count " + std::to_string(count) +
        " is impossible for a " + std::to_string(bytes.size()) +
        "-byte catalog blob");
  }
  SetCatalog catalog;
  uint32_t previous_id = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    uint32_t name_length = 0;
    if (!reader.GetU32(&id) || !reader.GetU32(&name_length)) {
      return Status::InvalidArgument("SetCatalog: truncated set record " +
                                     std::to_string(i));
    }
    // Ids are written in strictly increasing order below next_id; anything
    // else is corruption (or a forged blob trying to alias ids).
    if (id >= next_id || (i > 0 && id <= previous_id)) {
      return Status::InvalidArgument("SetCatalog: set record " +
                                     std::to_string(i) +
                                     " carries out-of-order id " +
                                     std::to_string(id));
    }
    previous_id = id;
    if (name_length == 0 || name_length > kMaxNameBytes ||
        name_length > reader.remaining()) {
      return Status::InvalidArgument("SetCatalog: bad name in set record " +
                                     std::to_string(i));
    }
    std::string name(name_length, '\0');
    if (!reader.GetBytes(name.data(), name_length)) {
      return Status::InvalidArgument("SetCatalog: truncated set record " +
                                     std::to_string(i));
    }
    uint32_t blob_length = 0;
    if (!reader.GetU32(&blob_length) || blob_length > reader.remaining()) {
      return Status::InvalidArgument(
          "SetCatalog: truncated filter blob for set '" + name + "'");
    }
    std::string blob(blob_length, '\0');
    if (blob_length > 0 && !reader.GetBytes(blob.data(), blob_length)) {
      return Status::InvalidArgument(
          "SetCatalog: truncated filter blob for set '" + name + "'");
    }
    std::unique_ptr<MembershipFilter> filter;
    Status s = registry.Deserialize(blob, &filter);
    if (s.code() == Status::Code::kNotFound) {
      // An unknown or retired filter name: stays NotFound, so the caller
      // can tell "rebuild this set" from a corrupt catalog.
      return Status::NotFound("SetCatalog: set '" + name + "': " +
                              s.message());
    }
    if (!s.ok()) {
      return Status::InvalidArgument("SetCatalog: set '" + name + "': " +
                                     s.ToString());
    }
    if (catalog.id_by_name_.find(name) != catalog.id_by_name_.end()) {
      return Status::InvalidArgument("SetCatalog: duplicate set name '" +
                                     name + "'");
    }
    SetEntry entry;
    entry.id = id;
    entry.name = name;
    entry.filter = std::move(filter);
    catalog.by_id_.emplace(id, std::move(entry));
    catalog.id_by_name_.emplace(std::move(name), id);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("SetCatalog: trailing bytes after the "
                                   "last set record");
  }
  catalog.next_id_ = next_id;
  *out = std::move(catalog);
  return Status::Ok();
}

}  // namespace shbf
