#include "baselines/spectral_bloom_filter.h"

#include <algorithm>

namespace shbf {

Status SpectralBloomFilter::Params::Validate() const {
  if (num_counters == 0) {
    return Status::InvalidArgument("SpectralBF: num_counters must be > 0");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("SpectralBF: num_hashes must be > 0");
  }
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument("SpectralBF: counter_bits must be in [1,32]");
  }
  return Status::Ok();
}

SpectralBloomFilter::SpectralBloomFilter(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes, params.seed),
      counters_(params.num_counters, params.counter_bits),
      policy_(params.policy) {
  CheckOk(params.Validate());
}

void SpectralBloomFilter::Insert(std::string_view key) {
  const size_t m = counters_.num_counters();
  const uint32_t k = family_.num_functions();
  const auto h = family_.Bind(key);
  if (policy_ == InsertPolicy::kIncrementAll) {
    for (uint32_t i = 0; i < k; ++i) {
      counters_.Increment(h(i) % m);
    }
    return;
  }
  // Minimum increase: bump only the counters currently at the minimum.
  uint64_t min_value = ~0ull;
  size_t indices[64];
  SHBF_CHECK(k <= 64) << "SpectralBF: num_hashes too large";
  for (uint32_t i = 0; i < k; ++i) {
    indices[i] = h(i) % m;
    min_value = std::min(min_value, counters_.Get(indices[i]));
  }
  for (uint32_t i = 0; i < k; ++i) {
    // A position may be shared by two hash functions of the same key; the
    // re-check against min_value keeps the increment idempotent per slot.
    if (counters_.Get(indices[i]) == min_value) {
      counters_.Increment(indices[i]);
    }
  }
}

void SpectralBloomFilter::Delete(std::string_view key) {
  SHBF_CHECK(policy_ == InsertPolicy::kIncrementAll)
      << "SpectralBF: deletes are only supported under kIncrementAll (§2.3)";
  const size_t m = counters_.num_counters();
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    counters_.Decrement(h(i) % m);
  }
}

uint64_t SpectralBloomFilter::QueryCount(std::string_view key) const {
  const size_t m = counters_.num_counters();
  uint64_t min_value = ~0ull;
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    min_value = std::min(min_value, counters_.Get(h(i) % m));
    if (min_value == 0) return 0;  // cannot go lower; early exit
  }
  return min_value;
}

uint64_t SpectralBloomFilter::QueryCountWithStats(std::string_view key,
                                                  QueryStats* stats) const {
  const size_t m = counters_.num_counters();
  ++stats->queries;
  uint64_t min_value = ~0ull;
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;
    min_value = std::min(min_value, counters_.Get(h(i) % m));
    if (min_value == 0) return 0;
  }
  return min_value;
}

std::string SpectralBloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kSpectralBloomFilter);
  writer.PutU64(counters_.num_counters());
  writer.PutU32(family_.num_functions());
  writer.PutU32(counters_.bits_per_counter());
  writer.PutU8(static_cast<uint8_t>(policy_));
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  counters_.AppendPayload(&writer);
  return writer.Take();
}

Status SpectralBloomFilter::FromBytes(
    std::string_view bytes, std::optional<SpectralBloomFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kSpectralBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_counters = 0;
  uint32_t num_hashes = 0;
  uint32_t counter_bits = 0;
  uint8_t policy = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_counters) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&counter_bits) || !reader.GetU8(&policy) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed)) {
    return Status::InvalidArgument("SpectralBF: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("SpectralBF: unknown hash id");
  if (policy > 1) return Status::InvalidArgument("SpectralBF: unknown policy");
  Params params{.num_counters = num_counters,
                .num_hashes = num_hashes,
                .counter_bits = counter_bits,
                .policy = static_cast<InsertPolicy>(policy),
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->counters_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("SpectralBF: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
