#include "baselines/counting_bloom_filter.h"

namespace shbf {

Status CountingBloomFilter::Params::Validate() const {
  if (num_counters == 0) {
    return Status::InvalidArgument("CBF: num_counters must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("CBF: num_hashes must be positive");
  }
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument("CBF: counter_bits must be in [1, 32]");
  }
  return Status::Ok();
}

CountingBloomFilter::CountingBloomFilter(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes, params.seed),
      counters_(params.num_counters, params.counter_bits) {
  CheckOk(params.Validate());
}

void CountingBloomFilter::Insert(std::string_view key) {
  const size_t m = counters_.num_counters();
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    counters_.Increment(h(i) % m);
  }
}

void CountingBloomFilter::Delete(std::string_view key) {
  const size_t m = counters_.num_counters();
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    counters_.Decrement(h(i) % m);
  }
}

bool CountingBloomFilter::Contains(std::string_view key) const {
  const size_t m = counters_.num_counters();
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    if (counters_.Get(h(i) % m) == 0) return false;
  }
  return true;
}

bool CountingBloomFilter::ContainsWithStats(std::string_view key,
                                            QueryStats* stats) const {
  const size_t m = counters_.num_counters();
  ++stats->queries;
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;
    if (counters_.Get(h(i) % m) == 0) return false;
  }
  return true;
}

std::string CountingBloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kCountingBloomFilter);
  writer.PutU64(counters_.num_counters());
  writer.PutU32(family_.num_functions());
  writer.PutU32(counters_.bits_per_counter());
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  counters_.AppendPayload(&writer);
  return writer.Take();
}

Status CountingBloomFilter::FromBytes(std::string_view bytes,
                                      std::optional<CountingBloomFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kCountingBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_counters = 0;
  uint32_t num_hashes = 0;
  uint32_t counter_bits = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_counters) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&counter_bits) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed)) {
    return Status::InvalidArgument("CBF: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("CBF: unknown hash id");
  Params params{.num_counters = num_counters,
                .num_hashes = num_hashes,
                .counter_bits = counter_bits,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->counters_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("CBF: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
