#include "baselines/cm_sketch.h"

#include <algorithm>

namespace shbf {

Status CmSketch::Params::Validate() const {
  if (depth == 0) {
    return Status::InvalidArgument("CmSketch: depth must be positive");
  }
  if (width == 0) {
    return Status::InvalidArgument("CmSketch: width must be positive");
  }
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument("CmSketch: counter_bits must be in [1,32]");
  }
  return Status::Ok();
}

CmSketch::CmSketch(const Params& params)
    : family_(params.hash_algorithm, params.depth, params.seed),
      depth_(params.depth),
      width_(params.width),
      conservative_(params.conservative_update),
      counters_(static_cast<size_t>(params.depth) * params.width,
                params.counter_bits) {
  CheckOk(params.Validate());
}

void CmSketch::Insert(std::string_view key) {
  const auto h = family_.Bind(key);
  if (!conservative_) {
    for (uint32_t row = 0; row < depth_; ++row) {
      counters_.Increment(CellIndex(row, h));
    }
    return;
  }
  // Conservative update: the new estimate must be current_min + 1; only
  // counters below that need to move.
  uint64_t min_value = ~0ull;
  size_t cells[64];
  SHBF_CHECK(depth_ <= 64) << "CmSketch: depth too large";
  for (uint32_t row = 0; row < depth_; ++row) {
    cells[row] = CellIndex(row, h);
    min_value = std::min(min_value, counters_.Get(cells[row]));
  }
  uint64_t target = min_value + 1;
  for (uint32_t row = 0; row < depth_; ++row) {
    uint64_t v = counters_.Get(cells[row]);
    if (v < target && v < counters_.max_value()) {
      counters_.Set(cells[row], std::min(target, counters_.max_value()));
    }
  }
}

uint64_t CmSketch::QueryCount(std::string_view key) const {
  const auto h = family_.Bind(key);
  uint64_t min_value = ~0ull;
  for (uint32_t row = 0; row < depth_; ++row) {
    min_value = std::min(min_value, counters_.Get(CellIndex(row, h)));
    if (min_value == 0) return 0;
  }
  return min_value;
}

uint64_t CmSketch::QueryCountWithStats(std::string_view key,
                                       QueryStats* stats) const {
  ++stats->queries;
  const auto h = family_.Bind(key);
  uint64_t min_value = ~0ull;
  for (uint32_t row = 0; row < depth_; ++row) {
    ++stats->hash_computations;
    ++stats->memory_accesses;
    min_value = std::min(min_value, counters_.Get(CellIndex(row, h)));
    if (min_value == 0) return 0;
  }
  return min_value;
}

std::string CmSketch::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kCmSketch);
  writer.PutU32(depth_);
  writer.PutU64(width_);
  writer.PutU32(counters_.bits_per_counter());
  writer.PutU8(conservative_ ? 1 : 0);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  counters_.AppendPayload(&writer);
  return writer.Take();
}

Status CmSketch::FromBytes(std::string_view bytes,
                           std::optional<CmSketch>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kCmSketch);
  if (!header.ok()) return header;
  uint32_t depth = 0;
  uint64_t width = 0;
  uint32_t counter_bits = 0;
  uint8_t conservative = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU32(&depth) || !reader.GetU64(&width) ||
      !reader.GetU32(&counter_bits) || !reader.GetU8(&conservative) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed)) {
    return Status::InvalidArgument("CmSketch: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("CmSketch: unknown hash id");
  Params params{.depth = depth,
                .width = width,
                .counter_bits = counter_bits,
                .conservative_update = conservative != 0,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->counters_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("CmSketch: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
