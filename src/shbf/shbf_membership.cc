#include "shbf/shbf_membership.h"

namespace shbf {

std::string ShbfM::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kShbfM);
  writer.PutU64(num_bits());
  writer.PutU32(num_hashes());
  writer.PutU32(max_offset_span());
  writer.PutU8(static_cast<uint8_t>(hash_algorithm()));
  writer.PutU64(seed());
  writer.PutU64(num_elements());
  bits().AppendPayload(&writer);
  return writer.Take();
}

Status ShbfM::FromBytes(std::string_view bytes, std::optional<ShbfM>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kShbfM);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t max_offset_span = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_elements = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&max_offset_span) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed) || !reader.GetU64(&num_elements)) {
    return Status::InvalidArgument("ShbfM: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("ShbfM: unknown hash id");
  return Restore("ShbfM",
                 Params{.num_bits = num_bits,
                        .num_hashes = num_hashes,
                        .max_offset_span = max_offset_span,
                        .hash_algorithm = static_cast<HashAlgorithm>(alg),
                        .seed = seed},
                 num_elements, &reader, out);
}

}  // namespace shbf
