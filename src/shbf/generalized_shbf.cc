#include "shbf/generalized_shbf.h"

namespace shbf {

Status GeneralizedShbfM::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("GeneralizedShbfM: num_bits must be > 0");
  }
  if (num_shifts < 1) {
    return Status::InvalidArgument("GeneralizedShbfM: num_shifts must be >= 1");
  }
  if (num_hashes == 0 || num_hashes % (num_shifts + 1) != 0) {
    return Status::InvalidArgument(
        "GeneralizedShbfM: num_hashes must be a positive multiple of t + 1");
  }
  if (max_offset_span < 2 || max_offset_span > BitArray::kWindowBits) {
    return Status::InvalidArgument(
        "GeneralizedShbfM: max_offset_span must be in [2, 57]");
  }
  if ((max_offset_span - 1) % num_shifts != 0) {
    return Status::InvalidArgument(
        "GeneralizedShbfM: (max_offset_span - 1) must be divisible by t for "
        "equal partitions");
  }
  if ((max_offset_span - 1) / num_shifts < 1) {
    return Status::InvalidArgument(
        "GeneralizedShbfM: partitions would be empty");
  }
  return Status::Ok();
}

GeneralizedShbfM::GeneralizedShbfM(const Params& params)
    : family_(params.hash_algorithm,
              params.num_hashes / (params.num_shifts + 1) + params.num_shifts,
              params.seed),
      num_hashes_(params.num_hashes),
      num_shifts_(params.num_shifts),
      max_offset_span_(params.max_offset_span),
      partition_width_((params.max_offset_span - 1) / params.num_shifts),
      bits_(params.num_bits, /*slack_bits=*/params.max_offset_span) {
  CheckOk(params.Validate());
}

std::vector<uint64_t> GeneralizedShbfM::OffsetsOf(std::string_view key) const {
  const uint32_t groups = num_groups();
  std::vector<uint64_t> offsets(num_shifts_);
  const auto h = family_.Bind(key);
  for (uint32_t j = 0; j < num_shifts_; ++j) {
    uint64_t within = h(groups + j) % partition_width_ + 1;
    offsets[j] = static_cast<uint64_t>(j) * partition_width_ + within;
  }
  return offsets;
}

uint64_t GeneralizedShbfM::NeedMask(const HashFamily::BoundKey& h) const {
  const uint32_t groups = num_groups();
  uint64_t mask = 1ull;  // the base bit
  for (uint32_t j = 0; j < num_shifts_; ++j) {
    uint64_t within = h(groups + j) % partition_width_ + 1;
    mask |= 1ull << (static_cast<uint64_t>(j) * partition_width_ + within);
  }
  return mask;
}

void GeneralizedShbfM::Add(std::string_view key) {
  const size_t m = bits_.num_bits();
  const uint32_t groups = num_groups();
  const auto h = family_.Bind(key);
  uint64_t mask = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) {
    size_t base = h(i) % m;
    uint64_t remaining = mask;
    while (remaining != 0) {
      uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(remaining));
      bits_.SetBit(base + bit);
      remaining &= remaining - 1;
    }
  }
}

bool GeneralizedShbfM::Contains(std::string_view key) const {
  const size_t m = bits_.num_bits();
  const uint32_t groups = num_groups();
  const auto h = family_.Bind(key);
  uint64_t mask = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) {
    size_t base = h(i) % m;
    if ((bits_.LoadWindow(base) & mask) != mask) return false;
  }
  return true;
}

bool GeneralizedShbfM::ContainsWithStats(std::string_view key,
                                         QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  const uint32_t groups = num_groups();
  ++stats->queries;
  stats->hash_computations += num_shifts_;  // the offset functions
  const auto h = family_.Bind(key);
  uint64_t mask = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;
    size_t base = h(i) % m;
    if ((bits_.LoadWindow(base) & mask) != mask) return false;
  }
  return true;
}

std::string GeneralizedShbfM::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kGeneralizedShbfM);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(num_shifts_);
  writer.PutU32(max_offset_span_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  bits_.AppendPayload(&writer);
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
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .num_shifts = num_shifts,
                .max_offset_span = max_offset_span,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("GeneralizedShbfM: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
