#include "baselines/bloom_filter.h"

#include <algorithm>
#include <cmath>

namespace shbf {

size_t BloomFilter::OptimalNumBits(size_t num_elements, double fpr) {
  SHBF_CHECK(num_elements > 0);
  SHBF_CHECK(fpr > 0.0 && fpr < 1.0);
  double ln2 = std::log(2.0);
  double m = -static_cast<double>(num_elements) * std::log(fpr) / (ln2 * ln2);
  return static_cast<size_t>(std::ceil(m));
}

uint32_t BloomFilter::OptimalNumHashes(size_t num_bits, size_t num_elements) {
  SHBF_CHECK(num_elements > 0);
  double k = static_cast<double>(num_bits) / num_elements * std::log(2.0);
  return static_cast<uint32_t>(std::max(1.0, std::round(k)));
}

std::string BloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kBloomFilter);
  writer.PutU64(num_bits());
  writer.PutU32(num_hashes());
  writer.PutU8(static_cast<uint8_t>(hash_algorithm()));
  writer.PutU64(seed());
  writer.PutU64(num_elements());
  bits().AppendPayload(&writer);
  return writer.Take();
}

Status BloomFilter::FromBytes(std::string_view bytes,
                              std::optional<BloomFilter>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_elements = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed) ||
      !reader.GetU64(&num_elements)) {
    return Status::InvalidArgument("BloomFilter: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("BloomFilter: unknown hash id");
  return Restore("BloomFilter",
                 Params{.num_bits = num_bits,
                        .num_hashes = num_hashes,
                        .hash_algorithm = static_cast<HashAlgorithm>(alg),
                        .seed = seed},
                 num_elements, &reader, out);
}

}  // namespace shbf
