#include "shbf/shbf_membership.h"

namespace shbf {

Status ShbfM::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("ShbfM: num_bits must be positive");
  }
  if (num_hashes < 2 || num_hashes % 2 != 0) {
    return Status::InvalidArgument(
        "ShbfM: num_hashes must be even and >= 2 (k/2 base-offset pairs)");
  }
  if (max_offset_span < 2) {
    return Status::InvalidArgument(
        "ShbfM: max_offset_span must be >= 2 so offsets are nonzero");
  }
  if (max_offset_span > BitArray::kWindowBits) {
    return Status::InvalidArgument(
        "ShbfM: max_offset_span exceeds the one-access window (w - 7 bits); "
        "pairs would need two memory accesses");
  }
  return Status::Ok();
}

ShbfM::ShbfM(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes / 2 + 1, params.seed),
      num_hashes_(params.num_hashes),
      max_offset_span_(params.max_offset_span),
      // Shifted writes may land up to w̄ − 1 bits past m − 1.
      bits_(params.num_bits, /*slack_bits=*/params.max_offset_span) {
  CheckOk(params.Validate());
}

ShbfM::ShbfM(const Params& params, BitArray bits, size_t num_elements)
    : family_(params.hash_algorithm, params.num_hashes / 2 + 1, params.seed),
      num_hashes_(params.num_hashes),
      max_offset_span_(params.max_offset_span),
      bits_(std::move(bits)),
      num_elements_(num_elements) {
  CheckOk(params.Validate());
  SHBF_CHECK(bits_.num_bits() == params.num_bits &&
             bits_.total_bits() == params.num_bits + params.max_offset_span)
      << "shbf_m: adopted bits don't match the spec geometry";
}

uint64_t ShbfM::OffsetOf(std::string_view key) const {
  return Offset(family_.Bind(key));
}

uint64_t ShbfM::Offset(const HashFamily::BoundKey& h) const {
  // o(e) = h_{k/2+1}(e) % (w̄ − 1) + 1, never zero (§3.1: o = 0 would merge
  // the pair into one bit and raise the FPR).
  return h(num_hashes_ / 2) % (max_offset_span_ - 1) + 1;
}

void ShbfM::Add(const void* data, size_t len) {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  const auto h = family_.Bind(data, len);
  const uint64_t offset = Offset(h);
  for (uint32_t i = 0; i < pairs; ++i) {
    size_t base = h(i) % m;
    bits_.SetBit(base);
    bits_.SetBit(base + offset);
  }
  ++num_elements_;
}

bool ShbfM::Contains(const void* data, size_t len) const {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  const auto h = family_.Bind(data, len);
  const uint64_t need = 1ull | (1ull << Offset(h));
  for (uint32_t i = 0; i < pairs; ++i) {
    if ((bits_.LoadWindow(h(i) % m) & need) != need) return false;
  }
  return true;
}

bool ShbfM::ContainsWithStats(std::string_view key, QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  ++stats->queries;
  ++stats->hash_computations;  // the offset hash
  const auto h = family_.Bind(key);
  const uint64_t need = 1ull | (1ull << Offset(h));
  for (uint32_t i = 0; i < pairs; ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;  // one unaligned load covers the pair
    if ((bits_.LoadWindow(h(i) % m) & need) != need) return false;
  }
  return true;
}

void ShbfM::Clear() {
  bits_.Clear();
  num_elements_ = 0;
}

Status ShbfM::MergeFrom(const ShbfM& other) {
  if (family_.algorithm() != other.family_.algorithm() ||
      family_.master_seed() != other.family_.master_seed() ||
      num_hashes_ != other.num_hashes_ ||
      max_offset_span_ != other.max_offset_span_) {
    return Status::FailedPrecondition(
        "ShbfM::MergeFrom: hash families differ");
  }
  if (!bits_.OrWith(other.bits_)) {
    return Status::FailedPrecondition("ShbfM::MergeFrom: geometry differs");
  }
  num_elements_ += other.num_elements_;
  return Status::Ok();
}

void ShbfM::PrepareProbe(std::string_view key, Probe* probe) const {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  SHBF_DCHECK(pairs <= kMaxBatchPairs);
  const auto h = family_.Bind(key);
  probe->need = 1ull | (1ull << Offset(h));
  for (uint32_t i = 0; i < pairs; ++i) probe->bases[i] = h(i) % m;
}

std::string ShbfM::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kShbfM);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(max_offset_span_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(num_elements_);
  bits_.AppendPayload(&writer);
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
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .max_offset_span = max_offset_span,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  (*out)->num_elements_ = num_elements;
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("ShbfM: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
