#include "shbf/generalized_shbf.h"

namespace shbf {

Status GeneralizedShbfM::Params::Validate() const {
  if (num_shifts < 1) {
    return Status::InvalidArgument("GeneralizedShbfM: num_shifts must be >= 1");
  }
  return layout().Validate("GeneralizedShbfM");
}

std::string GeneralizedShbfM::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kGeneralizedShbfM);
  writer.PutU64(num_bits());
  writer.PutU32(num_hashes());
  writer.PutU32(num_shifts());
  writer.PutU32(max_offset_span());
  writer.PutU8(static_cast<uint8_t>(hash_algorithm()));
  writer.PutU64(seed());
  bits().AppendPayload(&writer);
  return writer.Take();
}

Status GeneralizedShbfM::FromBytes(std::string_view bytes,
                                   std::optional<GeneralizedShbfM>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kGeneralizedShbfM);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t num_shifts = 0;
  uint32_t max_offset_span = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&num_shifts) || !reader.GetU32(&max_offset_span) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed)) {
    return Status::InvalidArgument(
        "GeneralizedShbfM: truncated parameter block");
  }
  if (alg > 3) {
    return Status::InvalidArgument("GeneralizedShbfM: unknown hash id");
  }
  return Restore("GeneralizedShbfM",
                 Params{.num_bits = num_bits,
                        .num_hashes = num_hashes,
                        .num_shifts = num_shifts,
                        .max_offset_span = max_offset_span,
                        .hash_algorithm = static_cast<HashAlgorithm>(alg),
                        .seed = seed},
                 /*num_elements=*/0, &reader, out);
}

}  // namespace shbf
