#include "baselines/dynamic_count_filter.h"

#include <algorithm>

namespace shbf {

Status DynamicCountFilter::Params::Validate() const {
  if (num_counters == 0) {
    return Status::InvalidArgument("DCF: num_counters must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("DCF: num_hashes must be positive");
  }
  if (base_bits < 1 || base_bits > 16) {
    return Status::InvalidArgument("DCF: base_bits must be in [1, 16]");
  }
  return Status::Ok();
}

DynamicCountFilter::DynamicCountFilter(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes, params.seed),
      base_(params.num_counters, params.base_bits) {
  CheckOk(params.Validate());
}

uint64_t DynamicCountFilter::Combined(size_t i) const {
  uint64_t value = base_.Get(i);
  if (overflow_ != nullptr) {
    value |= overflow_->Get(i) << base_.bits_per_counter();
  }
  return value;
}

void DynamicCountFilter::GrowOverflow() {
  uint32_t new_bits = overflow_ == nullptr ? 1 : overflow_->bits_per_counter() + 1;
  auto wider = std::make_unique<PackedCounterArray>(base_.num_counters(),
                                                    new_bits);
  if (overflow_ != nullptr) {
    for (size_t i = 0; i < overflow_->num_counters(); ++i) {
      wider->Set(i, overflow_->Get(i));
    }
  }
  overflow_ = std::move(wider);
  ++rebuilds_;
}

void DynamicCountFilter::MaybeShrinkOverflow() {
  if (overflow_ == nullptr) return;
  // Amortize the full scan: only check once per m deletions.
  if (++deletes_since_shrink_check_ < base_.num_counters()) return;
  deletes_since_shrink_check_ = 0;
  uint64_t max_value = 0;
  for (size_t i = 0; i < overflow_->num_counters(); ++i) {
    max_value = std::max(max_value, overflow_->Get(i));
  }
  uint32_t needed_bits = 0;
  while (max_value >> needed_bits) ++needed_bits;
  if (needed_bits >= overflow_->bits_per_counter()) return;
  if (needed_bits == 0) {
    overflow_.reset();
    ++rebuilds_;
    return;
  }
  auto narrower =
      std::make_unique<PackedCounterArray>(base_.num_counters(), needed_bits);
  for (size_t i = 0; i < overflow_->num_counters(); ++i) {
    narrower->Set(i, overflow_->Get(i));
  }
  overflow_ = std::move(narrower);
  ++rebuilds_;
}

void DynamicCountFilter::IncrementAt(size_t i) {
  uint64_t low = base_.Get(i);
  if (low < base_.max_value()) {
    base_.Set(i, low + 1);
    return;
  }
  // Carry into the overflow vector, growing it if the carry does not fit.
  base_.Set(i, 0);
  if (overflow_ == nullptr || overflow_->Get(i) == overflow_->max_value()) {
    GrowOverflow();
  }
  overflow_->Set(i, overflow_->Get(i) + 1);
}

void DynamicCountFilter::DecrementAt(size_t i) {
  uint64_t low = base_.Get(i);
  if (low > 0) {
    base_.Set(i, low - 1);
    return;
  }
  // Borrow from the overflow vector.
  SHBF_CHECK(overflow_ != nullptr && overflow_->Get(i) > 0)
      << "DCF counter underflow at index " << i;
  overflow_->Set(i, overflow_->Get(i) - 1);
  base_.Set(i, base_.max_value());
}

void DynamicCountFilter::Insert(std::string_view key) {
  const size_t m = base_.num_counters();
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    IncrementAt(h(i) % m);
  }
}

void DynamicCountFilter::Delete(std::string_view key) {
  const size_t m = base_.num_counters();
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    DecrementAt(h(i) % m);
  }
  MaybeShrinkOverflow();
}

uint64_t DynamicCountFilter::QueryCount(std::string_view key) const {
  const size_t m = base_.num_counters();
  uint64_t min_value = ~0ull;
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    min_value = std::min(min_value, Combined(h(i) % m));
    if (min_value == 0) return 0;
  }
  return min_value;
}

uint64_t DynamicCountFilter::QueryCountWithStats(std::string_view key,
                                                 QueryStats* stats) const {
  const size_t m = base_.num_counters();
  ++stats->queries;
  uint64_t min_value = ~0ull;
  const uint64_t accesses_per_probe = overflow_ == nullptr ? 1 : 2;
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    ++stats->hash_computations;
    stats->memory_accesses += accesses_per_probe;  // CBFV (+ OFV)
    min_value = std::min(min_value, Combined(h(i) % m));
    if (min_value == 0) return 0;
  }
  return min_value;
}

size_t DynamicCountFilter::memory_bits() const {
  size_t bits = base_.num_counters() * base_.bits_per_counter();
  if (overflow_ != nullptr) {
    bits += overflow_->num_counters() * overflow_->bits_per_counter();
  }
  return bits;
}

std::string DynamicCountFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kDynamicCountFilter);
  writer.PutU64(base_.num_counters());
  writer.PutU32(family_.num_functions());
  writer.PutU32(base_.bits_per_counter());
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(rebuilds_);
  writer.PutU64(deletes_since_shrink_check_);
  // 0 = no overflow vector; otherwise its current counter width.
  writer.PutU32(overflow_ == nullptr ? 0 : overflow_->bits_per_counter());
  base_.AppendPayload(&writer);
  if (overflow_ != nullptr) overflow_->AppendPayload(&writer);
  return writer.Take();
}

Status DynamicCountFilter::FromBytes(std::string_view bytes,
                                     std::optional<DynamicCountFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kDynamicCountFilter);
  if (!header.ok()) return header;
  uint64_t num_counters = 0;
  uint32_t num_hashes = 0;
  uint32_t base_bits = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t rebuilds = 0;
  uint64_t deletes_since = 0;
  uint32_t overflow_bits = 0;
  if (!reader.GetU64(&num_counters) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&base_bits) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed) || !reader.GetU64(&rebuilds) ||
      !reader.GetU64(&deletes_since) || !reader.GetU32(&overflow_bits)) {
    return Status::InvalidArgument("DCF: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("DCF: unknown hash id");
  if (overflow_bits > 32) {
    return Status::InvalidArgument("DCF: overflow width out of range");
  }
  Params params{.num_counters = num_counters,
                .num_hashes = num_hashes,
                .base_bits = base_bits,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  (*out)->rebuilds_ = rebuilds;
  (*out)->deletes_since_shrink_check_ = deletes_since;
  if (!(*out)->base_.ReadPayload(&reader)) {
    out->reset();
    return Status::InvalidArgument("DCF: truncated base payload");
  }
  if (overflow_bits > 0) {
    (*out)->overflow_ =
        std::make_unique<PackedCounterArray>(num_counters, overflow_bits);
    if (!(*out)->overflow_->ReadPayload(&reader)) {
      out->reset();
      return Status::InvalidArgument("DCF: truncated overflow payload");
    }
  }
  if (!reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("DCF: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
