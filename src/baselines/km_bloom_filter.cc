#include "baselines/km_bloom_filter.h"

namespace shbf {

Status KmBloomFilter::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("KmBF: num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("KmBF: num_hashes must be positive");
  }
  return Status::Ok();
}

KmBloomFilter::KmBloomFilter(const Params& params)
    : family_(params.hash_algorithm, 2, params.seed),
      num_hashes_(params.num_hashes),
      bits_(params.num_bits, /*slack_bits=*/0) {
  CheckOk(params.Validate());
}

void KmBloomFilter::Add(std::string_view key) {
  const size_t m = bits_.num_bits();
  const auto h = family_.Bind(key);
  const uint64_t h1 = h(0);
  const uint64_t h2 = h(1);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    bits_.SetBit((h1 + static_cast<uint64_t>(i) * h2) % m);
  }
}

bool KmBloomFilter::Contains(std::string_view key) const {
  const size_t m = bits_.num_bits();
  const auto h = family_.Bind(key);
  const uint64_t h1 = h(0);
  const uint64_t h2 = h(1);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    if (!bits_.GetBit((h1 + static_cast<uint64_t>(i) * h2) % m)) return false;
  }
  return true;
}

bool KmBloomFilter::ContainsWithStats(std::string_view key,
                                      QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  ++stats->queries;
  stats->hash_computations += 2;  // h1, h2; the probes are arithmetic
  const auto h = family_.Bind(key);
  const uint64_t h1 = h(0);
  const uint64_t h2 = h(1);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    ++stats->memory_accesses;
    if (!bits_.GetBit((h1 + static_cast<uint64_t>(i) * h2) % m)) return false;
  }
  return true;
}

std::string KmBloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kKmBloomFilter);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  bits_.AppendPayload(&writer);
  return writer.Take();
}

Status KmBloomFilter::FromBytes(std::string_view bytes,
                                std::optional<KmBloomFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kKmBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed)) {
    return Status::InvalidArgument("KmBF: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("KmBF: unknown hash id");
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("KmBF: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
