#include "shbf/counting_shbf_membership.h"

namespace shbf {

Status CountingShbfM::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("CountingShbfM: num_bits must be positive");
  }
  if (num_hashes < 2 || num_hashes % 2 != 0) {
    return Status::InvalidArgument(
        "CountingShbfM: num_hashes must be even and >= 2");
  }
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument(
        "CountingShbfM: counter_bits must be in [1, 32]");
  }
  if (max_offset_span < 2 || max_offset_span > BitArray::kWindowBits) {
    return Status::InvalidArgument(
        "CountingShbfM: max_offset_span must be in [2, 57]");
  }
  return Status::Ok();
}

CountingShbfM::CountingShbfM(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes / 2 + 1, params.seed),
      num_hashes_(params.num_hashes),
      max_offset_span_(params.max_offset_span),
      bits_(params.num_bits, /*slack_bits=*/params.max_offset_span),
      counters_(params.num_bits + params.max_offset_span,
                params.counter_bits) {
  CheckOk(params.Validate());
}

uint64_t CountingShbfM::Offset(const HashFamily::BoundKey& h) const {
  return h(num_hashes_ / 2) % (max_offset_span_ - 1) + 1;
}

void CountingShbfM::Insert(std::string_view key) {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  for (uint32_t i = 0; i < pairs; ++i) {
    size_t base = h(i) % m;
    for (size_t pos : {base, base + offset}) {
      counters_.Increment(pos);
      if (counters_.Get(pos) >= 1) bits_.SetBit(pos);
    }
  }
}

void CountingShbfM::Delete(std::string_view key) {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  for (uint32_t i = 0; i < pairs; ++i) {
    size_t base = h(i) % m;
    for (size_t pos : {base, base + offset}) {
      counters_.Decrement(pos);
      if (counters_.Get(pos) == 0) bits_.ClearBit(pos);
    }
  }
}

bool CountingShbfM::Contains(std::string_view key) const {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  const uint64_t need = 1ull | (1ull << offset);
  for (uint32_t i = 0; i < pairs; ++i) {
    size_t base = h(i) % m;
    if ((bits_.LoadWindow(base) & need) != need) return false;
  }
  return true;
}

bool CountingShbfM::ContainsWithStats(std::string_view key,
                                      QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  const uint32_t pairs = num_hashes_ / 2;
  ++stats->queries;
  ++stats->hash_computations;
  const auto h = family_.Bind(key);
  uint64_t offset = Offset(h);
  const uint64_t need = 1ull | (1ull << offset);
  for (uint32_t i = 0; i < pairs; ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;
    size_t base = h(i) % m;
    if ((bits_.LoadWindow(base) & need) != need) return false;
  }
  return true;
}

bool CountingShbfM::SynchronizedWithCounters() const {
  for (size_t i = 0; i < counters_.num_counters(); ++i) {
    if ((counters_.Get(i) > 0) != bits_.GetBit(i)) return false;
  }
  return true;
}

std::string CountingShbfM::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kCountingShbfM);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(counters_.bits_per_counter());
  writer.PutU32(max_offset_span_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  bits_.AppendPayload(&writer);
  counters_.AppendPayload(&writer);
  return writer.Take();
}

Status CountingShbfM::FromBytes(std::string_view bytes,
                                std::optional<CountingShbfM>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kCountingShbfM);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t counter_bits = 0;
  uint32_t max_offset_span = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&counter_bits) || !reader.GetU32(&max_offset_span) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed)) {
    return Status::InvalidArgument("CountingShbfM: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("CountingShbfM: unknown hash id");
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .counter_bits = counter_bits,
                .max_offset_span = max_offset_span,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->bits_.ReadPayload(&reader) ||
      !(*out)->counters_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("CountingShbfM: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
