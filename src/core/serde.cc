#include "core/serde.h"

namespace shbf::serde {

void WriteHeader(ByteWriter* writer, StructureTag tag) {
  writer->PutU32(kMagic);
  writer->PutU8(kFormatVersion);
  writer->PutU8(static_cast<uint8_t>(tag));
}

Status ReadHeader(ByteReader* reader, StructureTag expected) {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t tag = 0;
  if (!reader->GetU32(&magic) || !reader->GetU8(&version) ||
      !reader->GetU8(&tag)) {
    return Status::InvalidArgument("serde: input truncated in header");
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("serde: bad magic (not an SHBF blob)");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("serde: unsupported format version " +
                                   std::to_string(version));
  }
  if (tag != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument(
        "serde: structure tag mismatch (expected " +
        std::to_string(static_cast<int>(expected)) + ", got " +
        std::to_string(static_cast<int>(tag)) + ")");
  }
  return Status::Ok();
}

void WriteKeyList(ByteWriter* writer, const std::vector<std::string>& keys) {
  writer->PutU64(keys.size());
  for (const auto& key : keys) {
    writer->PutU32(static_cast<uint32_t>(key.size()));
    writer->PutBytes(key.data(), key.size());
  }
}

bool ReadKeyCount(ByteReader* reader, uint64_t* count) {
  if (!reader->GetU64(count)) return false;
  // Each key costs at least its 4-byte length prefix, so a count beyond
  // remaining/4 is unsatisfiable.
  return *count <= reader->remaining() / 4;
}

bool ReadKeyList(ByteReader* reader, std::vector<std::string>* keys) {
  uint64_t count = 0;
  if (!ReadKeyCount(reader, &count)) return false;
  keys->clear();
  keys->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t length = 0;
    if (!reader->GetU32(&length) || length > reader->remaining()) return false;
    std::string key(length, '\0');
    if (!reader->GetBytes(key.data(), length)) return false;
    keys->push_back(std::move(key));
  }
  return true;
}

void WriteKeyCountList(
    ByteWriter* writer,
    const std::vector<std::pair<std::string, uint64_t>>& entries) {
  writer->PutU64(entries.size());
  for (const auto& [key, count] : entries) {
    writer->PutU32(static_cast<uint32_t>(key.size()));
    writer->PutBytes(key.data(), key.size());
    writer->PutU64(count);
  }
}

bool ReadKeyCountList(
    ByteReader* reader,
    std::vector<std::pair<std::string, uint64_t>>* entries) {
  uint64_t count = 0;
  if (!reader->GetU64(&count)) return false;
  // Each entry costs at least 12 bytes (length prefix + count).
  if (count > reader->remaining() / 12) return false;
  entries->clear();
  entries->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t length = 0;
    if (!reader->GetU32(&length) || length > reader->remaining()) return false;
    std::string key(length, '\0');
    uint64_t value = 0;
    if (!reader->GetBytes(key.data(), length) || !reader->GetU64(&value)) {
      return false;
    }
    entries->emplace_back(std::move(key), value);
  }
  return true;
}

}  // namespace shbf::serde
