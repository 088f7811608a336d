#include "baselines/cuckoo_filter.h"

#include <algorithm>
#include <utility>

#include "core/bits.h"

namespace shbf {

Status CuckooFilter::Params::Validate() const {
  if (num_buckets == 0) {
    return Status::InvalidArgument("CuckooFilter: num_buckets must be > 0");
  }
  if (bucket_size == 0 || bucket_size > 8) {
    return Status::InvalidArgument("CuckooFilter: bucket_size must be in [1,8]");
  }
  if (fingerprint_bits < 4 || fingerprint_bits > 32) {
    return Status::InvalidArgument(
        "CuckooFilter: fingerprint_bits must be in [4,32]");
  }
  return Status::Ok();
}

CuckooFilter::CuckooFilter(const Params& params)
    : CuckooFilter(params,
                   std::make_shared<PackedCounterArray>(
                       NextPowerOfTwo(params.num_buckets) * params.bucket_size,
                       params.fingerprint_bits),
                   1, 0) {}

CuckooFilter::CuckooFilter(const Params& params,
                           std::shared_ptr<PackedCounterArray> table,
                           uint32_t lanes, uint32_t lane)
    : family_(params.hash_algorithm, 3, params.seed),
      num_buckets_(NextPowerOfTwo(params.num_buckets)),
      bucket_size_(params.bucket_size),
      fingerprint_bits_(params.fingerprint_bits),
      max_kicks_(params.max_kicks),
      kick_rng_(params.seed ^ 0xc0c0c0c0c0c0c0c0ull),
      table_(std::move(table)),
      lanes_(lanes),
      lane_(lane) {
  CheckOk(params.Validate());
  CheckFits(table_.get(), lanes_, lane_);
}

void CuckooFilter::CheckFits(const PackedCounterArray* table, uint32_t lanes,
                             uint32_t lane) const {
  SHBF_CHECK(table != nullptr && lane < lanes &&
             table->num_counters() == num_buckets_ * lanes * bucket_size_ &&
             table->bits_per_counter() == fingerprint_bits_)
      << "CuckooFilter: the table does not hold " << lanes
      << " lanes of this geometry";
}

CuckooFilter::Params CuckooFilter::params() const {
  return {.num_buckets = num_buckets_,
          .bucket_size = bucket_size_,
          .fingerprint_bits = fingerprint_bits_,
          .max_kicks = max_kicks_,
          .hash_algorithm = family_.algorithm(),
          .seed = family_.master_seed()};
}

void CuckooFilter::PrepareProbe(std::string_view key, Probe* probe) const {
  uint64_t fp_mask = table_->max_value();
  const auto h = family_.Bind(key);
  uint64_t fingerprint = h(1) & fp_mask;
  if (fingerprint == 0) fingerprint = 1;  // 0 is the empty-slot marker
  size_t i1 = h(0) & (num_buckets_ - 1);
  *probe = {i1, AltIndex(i1, fingerprint), fingerprint};
}

size_t CuckooFilter::AltIndex(size_t index, uint64_t fingerprint) const {
  // Standard partial-key trick: XOR with a hash of the fingerprint keeps the
  // pair relation symmetric (AltIndex(AltIndex(i)) == i).
  uint64_t h = family_.Hash(2, &fingerprint, sizeof(fingerprint));
  return (index ^ h) & (num_buckets_ - 1);
}

bool CuckooFilter::TryInsertIntoBucket(size_t bucket, uint64_t fingerprint) {
  const size_t base = FirstSlot(bucket);
  for (uint32_t s = 0; s < bucket_size_; ++s) {
    if (table_->Get(base + s) == 0) {
      table_->Set(base + s, fingerprint);
      return true;
    }
  }
  return false;
}

bool CuckooFilter::RemoveFromBucket(size_t bucket, uint64_t fingerprint) {
  const size_t base = FirstSlot(bucket);
  for (uint32_t s = 0; s < bucket_size_; ++s) {
    if (table_->Get(base + s) == fingerprint) {
      table_->Set(base + s, 0);
      return true;
    }
  }
  return false;
}

bool CuckooFilter::Insert(std::string_view key) {
  if (victim_.used) return false;  // full since the last failure
  Probe loc;
  PrepareProbe(key, &loc);
  if (TryInsertIntoBucket(loc.i1, loc.fingerprint) ||
      TryInsertIntoBucket(loc.i2, loc.fingerprint)) {
    ++num_items_;
    return true;
  }
  // Kick a random resident and relocate it, up to max_kicks_ times.
  size_t bucket = (kick_rng_.Next() & 1) ? loc.i2 : loc.i1;
  uint64_t fingerprint = loc.fingerprint;
  for (uint32_t kick = 0; kick < max_kicks_; ++kick) {
    size_t slot = FirstSlot(bucket) + kick_rng_.NextBelow(bucket_size_);
    uint64_t victim = table_->Get(slot);
    table_->Set(slot, fingerprint);
    fingerprint = victim;
    bucket = AltIndex(bucket, fingerprint);
    if (TryInsertIntoBucket(bucket, fingerprint)) {
      ++num_items_;
      return true;
    }
  }
  // Filter full (the Cuckoo paper's "non-negligible failure"). Park the last
  // displaced fingerprint in the stash so earlier keys keep no-FN semantics.
  victim_ = {true, bucket, fingerprint};
  ++num_items_;
  return false;
}

bool CuckooFilter::ContainsWithStats(std::string_view key,
                                     QueryStats* stats) const {
  ++stats->queries;
  stats->hash_computations += 3;
  Probe loc;
  PrepareProbe(key, &loc);
  // The victim stash must be consulted exactly as in Contains(): skipping
  // it would let the stats path report a false negative for a key whose
  // fingerprint was displaced into the stash.
  if (InVictimStash(loc)) return true;
  ++stats->memory_accesses;  // bucket 1
  if (BucketContains(loc.i1, loc.fingerprint)) return true;
  ++stats->memory_accesses;  // bucket 2
  return BucketContains(loc.i2, loc.fingerprint);
}

bool CuckooFilter::Delete(std::string_view key) {
  Probe loc;
  PrepareProbe(key, &loc);
  if (InVictimStash(loc)) {
    victim_.used = false;
    --num_items_;
    return true;
  }
  if (RemoveFromBucket(loc.i1, loc.fingerprint) ||
      RemoveFromBucket(loc.i2, loc.fingerprint)) {
    --num_items_;
    // A freed slot may let the stashed victim re-enter either of its
    // buckets.
    if (victim_.used &&
        (TryInsertIntoBucket(victim_.index, victim_.fingerprint) ||
         TryInsertIntoBucket(AltIndex(victim_.index, victim_.fingerprint),
                             victim_.fingerprint))) {
      victim_.used = false;
    }
    return true;
  }
  return false;
}

void CuckooFilter::Clear() {
  for (size_t bucket = 0; bucket < num_buckets_; ++bucket) {
    for (uint32_t s = 0; s < bucket_size_; ++s) {
      table_->Set(FirstSlot(bucket) + s, 0);
    }
  }
  victim_ = Victim{};
  num_items_ = 0;
}

void CuckooFilter::CopySlotsTo(PackedCounterArray* table, uint32_t lanes,
                               uint32_t lane) const {
  // A bucket's slots are contiguous in every layout: copy them in runs of
  // at most 64 bits.
  const uint32_t run = std::min(bucket_size_, 64 / fingerprint_bits_);
  for (size_t bucket = 0; bucket < num_buckets_; ++bucket) {
    const size_t from = FirstSlot(bucket);
    const size_t to = FirstSlotIn(lanes, lane, bucket);
    for (uint32_t s = 0; s < bucket_size_; s += run) {
      const uint32_t count = std::min(run, bucket_size_ - s);
      table->SetRun(to + s, count, table_->GetRun(from + s, count));
    }
  }
}

void CuckooFilter::MoveToLane(std::shared_ptr<PackedCounterArray> table,
                              uint32_t lanes, uint32_t lane) {
  CheckFits(table.get(), lanes, lane);
  CopySlotsTo(table.get(), lanes, lane);
  table_ = std::move(table);
  lanes_ = lanes;
  lane_ = lane;
}

std::string CuckooFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kCuckooFilter);
  writer.PutU64(num_buckets_);
  writer.PutU32(bucket_size_);
  writer.PutU32(fingerprint_bits_);
  writer.PutU32(max_kicks_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(num_items_);
  writer.PutU8(victim_.used ? 1 : 0);
  writer.PutU64(victim_.index);
  writer.PutU64(victim_.fingerprint);
  PackedCounterArray own(num_buckets_ * bucket_size_, fingerprint_bits_);
  CopySlotsTo(&own, 1, 0);
  own.AppendPayload(&writer);
  return writer.Take();
}

Status CuckooFilter::FromBytes(std::string_view bytes,
                               std::optional<CuckooFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kCuckooFilter);
  if (!header.ok()) return header;
  uint64_t num_buckets = 0;
  uint32_t bucket_size = 0;
  uint32_t fingerprint_bits = 0;
  uint32_t max_kicks = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_items = 0;
  uint8_t victim_used = 0;
  uint64_t victim_index = 0;
  uint64_t victim_fingerprint = 0;
  if (!reader.GetU64(&num_buckets) || !reader.GetU32(&bucket_size) ||
      !reader.GetU32(&fingerprint_bits) || !reader.GetU32(&max_kicks) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed) ||
      !reader.GetU64(&num_items) || !reader.GetU8(&victim_used) ||
      !reader.GetU64(&victim_index) || !reader.GetU64(&victim_fingerprint)) {
    return Status::InvalidArgument("CuckooFilter: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("CuckooFilter: unknown hash id");
  if (!IsPowerOfTwo(num_buckets)) {
    return Status::InvalidArgument("CuckooFilter: num_buckets not a power of 2");
  }
  Params params{.num_buckets = num_buckets,
                .bucket_size = bucket_size,
                .fingerprint_bits = fingerprint_bits,
                .max_kicks = max_kicks,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  if (victim_used != 0) {
    uint64_t fingerprint_mask = (1ull << fingerprint_bits) - 1;
    if (victim_index >= num_buckets || victim_fingerprint == 0 ||
        victim_fingerprint > fingerprint_mask) {
      return Status::InvalidArgument("CuckooFilter: victim out of range");
    }
  }
  out->emplace(params);
  (*out)->num_items_ = num_items;
  (*out)->victim_ = {victim_used != 0, static_cast<size_t>(victim_index),
                     victim_fingerprint};
  if (!(*out)->table_->ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("CuckooFilter: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
