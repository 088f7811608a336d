#include "api/filter_spec.h"

#include <cmath>

namespace shbf {

FilterSpec FilterSpec::ForKeys(size_t expected_keys, double bits_per_key,
                               uint32_t num_hashes) {
  FilterSpec spec;
  spec.num_cells = static_cast<size_t>(
      std::ceil(bits_per_key * static_cast<double>(expected_keys)));
  if (spec.num_cells == 0) spec.num_cells = 1;
  spec.num_hashes = num_hashes;
  spec.expected_keys = expected_keys;
  return spec;
}

Status FilterSpec::Validate() const {
  if (num_cells == 0) {
    return Status::InvalidArgument("FilterSpec: num_cells must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("FilterSpec: num_hashes must be positive");
  }
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument(
        "FilterSpec: counter_bits must be in [1, 32]");
  }
  if (max_count == 0) {
    return Status::InvalidArgument("FilterSpec: max_count must be positive");
  }
  if (num_shifts == 0) {
    return Status::InvalidArgument("FilterSpec: num_shifts must be positive");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("FilterSpec: batch_size must be positive");
  }
  if (sub_block_bits < 8 || sub_block_bits > 64 ||
      (sub_block_bits & (sub_block_bits - 1)) != 0) {
    return Status::InvalidArgument(
        "FilterSpec: sub_block_bits must be a power of two in [8, 64]");
  }
  if (shards == 0) {
    return Status::InvalidArgument("FilterSpec: shards must be positive");
  }
  if (delta_capacity > kMaxDeltaCapacity) {
    return Status::InvalidArgument(
        "FilterSpec: delta_capacity exceeds the supported maximum (2^24)");
  }
  return Status::Ok();
}

namespace spec_serde {
namespace {
// What WriteSpec puts in the v4 slot. The slot once held the block size of
// the retired cache-blocked filters; no filter reads it any more, so
// ReadSpec skips whatever an older blob stored there.
constexpr uint32_t kReservedSpecSlot = 512;
}  // namespace

void WriteSpec(ByteWriter* writer, const FilterSpec& spec) {
  writer->PutU64(spec.num_cells);
  writer->PutU32(spec.num_hashes);
  writer->PutU32(spec.counter_bits);
  writer->PutU32(spec.max_count);
  writer->PutU32(spec.num_shifts);
  writer->PutU32(spec.bucket_size);
  writer->PutU32(spec.fingerprint_bits);
  writer->PutU32(spec.word_bits);
  writer->PutU64(spec.expected_keys);
  writer->PutU32(spec.batch_size);
  writer->PutU32(spec.shards);
  writer->PutU64(spec.delta_capacity);
  writer->PutU8(spec.auto_scale ? 1 : 0);
  writer->PutU8(static_cast<uint8_t>(spec.hash_algorithm));
  writer->PutU64(spec.seed);
  // Envelope v4 extension: the reserved slot appended past the v3 layout.
  writer->PutU32(kReservedSpecSlot);
  // Envelope v5 extension.
  writer->PutU32(spec.sub_block_bits);
}

bool ReadSpec(ByteReader* reader, FilterSpec* spec) {
  uint64_t num_cells = 0;
  uint64_t expected_keys = 0;
  uint64_t delta_capacity = 0;
  uint8_t auto_scale = 0;
  uint8_t alg = 0;
  if (!reader->GetU64(&num_cells) || !reader->GetU32(&spec->num_hashes) ||
      !reader->GetU32(&spec->counter_bits) ||
      !reader->GetU32(&spec->max_count) ||
      !reader->GetU32(&spec->num_shifts) ||
      !reader->GetU32(&spec->bucket_size) ||
      !reader->GetU32(&spec->fingerprint_bits) ||
      !reader->GetU32(&spec->word_bits) || !reader->GetU64(&expected_keys) ||
      !reader->GetU32(&spec->batch_size) || !reader->GetU32(&spec->shards) ||
      !reader->GetU64(&delta_capacity) || !reader->GetU8(&auto_scale) ||
      !reader->GetU8(&alg) || !reader->GetU64(&spec->seed)) {
    return false;
  }
  if (alg > 3 || auto_scale > 1) return false;
  uint32_t reserved = 0;  // the v4 slot, see kReservedSpecSlot
  if (!reader->GetU32(&reserved)) return false;
  if (CurrentSpecWireVersion() >= 5) {
    if (!reader->GetU32(&spec->sub_block_bits)) return false;
  } else {
    // v4 blobs predate the split-block layouts; the default matches what
    // any v4-era factory would have built.
    spec->sub_block_bits = 64;
  }
  spec->num_cells = num_cells;
  spec->expected_keys = expected_keys;
  spec->delta_capacity = delta_capacity;
  spec->auto_scale = auto_scale != 0;
  spec->hash_algorithm = static_cast<HashAlgorithm>(alg);
  return true;
}

namespace {
// Thread-local so concurrent deserializations (e.g. server RELOADs on two
// worker threads) cannot see each other's envelope version.
thread_local int g_spec_wire_version = kSpecWireLatest;
}  // namespace

int CurrentSpecWireVersion() { return g_spec_wire_version; }

SpecWireVersionScope::SpecWireVersionScope(int version)
    : saved_(g_spec_wire_version) {
  g_spec_wire_version = version;
}

SpecWireVersionScope::~SpecWireVersionScope() {
  g_spec_wire_version = saved_;
}

}  // namespace spec_serde
}  // namespace shbf
