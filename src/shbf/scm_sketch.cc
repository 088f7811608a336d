#include "shbf/scm_sketch.h"

#include <algorithm>

namespace shbf {

Status ScmSketch::Params::Validate() const {
  if (depth < 2 || depth % 2 != 0) {
    return Status::InvalidArgument("ScmSketch: depth must be even and >= 2");
  }
  if (width == 0) {
    return Status::InvalidArgument("ScmSketch: width must be positive");
  }
  if (counter_bits < 1 || counter_bits > 28) {
    return Status::InvalidArgument("ScmSketch: counter_bits must be in [1,28]");
  }
  if (OffsetSpan() < 2) {
    return Status::InvalidArgument(
        "ScmSketch: counters too wide for one-access pairs; "
        "(w - 7) / counter_bits must be >= 2 (§5.5)");
  }
  return Status::Ok();
}

ScmSketch::ScmSketch(const Params& params)
    : family_(params.hash_algorithm, params.depth / 2 + 1, params.seed),
      rows_(params.depth / 2),
      row_width_(2 * params.width),
      row_stride_(2 * params.width + params.OffsetSpan()),
      offset_span_(params.OffsetSpan()),
      counters_(static_cast<size_t>(params.depth / 2) *
                    (2 * params.width + params.OffsetSpan()),
                params.counter_bits) {
  CheckOk(params.Validate());
}

uint64_t ScmSketch::Offset(const HashFamily::BoundKey& h) const {
  return h(rows_) % (offset_span_ - 1) + 1;
}

void ScmSketch::Insert(std::string_view key) {
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  for (uint32_t row = 0; row < rows_; ++row) {
    size_t col = h(row) % row_width_;
    size_t cell = row * row_stride_ + col;
    counters_.Increment(cell);
    counters_.Increment(cell + offset);
  }
}

uint64_t ScmSketch::QueryCount(std::string_view key) const {
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  uint64_t min_value = ~0ull;
  for (uint32_t row = 0; row < rows_; ++row) {
    size_t col = h(row) % row_width_;
    size_t cell = row * row_stride_ + col;
    min_value = std::min({min_value, counters_.Get(cell),
                          counters_.Get(cell + offset)});
    if (min_value == 0) return 0;
  }
  return min_value;
}

uint64_t ScmSketch::QueryCountWithStats(std::string_view key,
                                        QueryStats* stats) const {
  ++stats->queries;
  ++stats->hash_computations;  // the offset function
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  uint64_t min_value = ~0ull;
  for (uint32_t row = 0; row < rows_; ++row) {
    ++stats->hash_computations;
    ++stats->memory_accesses;  // the pair shares one word window (§5.5)
    size_t col = h(row) % row_width_;
    size_t cell = row * row_stride_ + col;
    min_value = std::min({min_value, counters_.Get(cell),
                          counters_.Get(cell + offset)});
    if (min_value == 0) return 0;
  }
  return min_value;
}

std::string ScmSketch::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kScmSketch);
  writer.PutU32(rows_ * 2);           // d of the equivalent CM sketch
  writer.PutU64(row_width_ / 2);      // r of the equivalent CM sketch
  writer.PutU32(counters_.bits_per_counter());
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  counters_.AppendPayload(&writer);
  return writer.Take();
}

Status ScmSketch::FromBytes(std::string_view bytes,
                            std::optional<ScmSketch>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kScmSketch);
  if (!header.ok()) return header;
  uint32_t depth = 0;
  uint64_t width = 0;
  uint32_t counter_bits = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU32(&depth) || !reader.GetU64(&width) ||
      !reader.GetU32(&counter_bits) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed)) {
    return Status::InvalidArgument("ScmSketch: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("ScmSketch: unknown hash id");
  Params params{.depth = depth,
                .width = width,
                .counter_bits = counter_bits,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->counters_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("ScmSketch: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
