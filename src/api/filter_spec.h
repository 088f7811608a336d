// FilterSpec — one parameter struct every registry factory understands.
//
// Each concrete filter has its own Params with scheme-specific knobs; a
// uniform driver loop cannot fill in nineteen different structs. FilterSpec
// names the shared vocabulary (cells, hashes, counter width, seed, ...) and
// each factory derives the nearest valid concrete Params from it: shbf_m
// rounds num_hashes up to even, shbf_g to a multiple of t + 1, the sketches
// split num_cells into depth × width, the cuckoo filter converts it into a
// bucket count, and so on. Derivations are documented per entry in
// adapters.cc.

#ifndef SHBF_API_FILTER_SPEC_H_
#define SHBF_API_FILTER_SPEC_H_

#include <cstddef>
#include <cstdint>

#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

/// The shared construction vocabulary every registry factory understands;
/// see the file comment for how factories derive concrete params from it.
struct FilterSpec {
  /// m: the number of logical cells — bits for bit-array filters, counters
  /// for counting structures and sketches. The primary size knob.
  size_t num_cells = 0;

  /// k: hash functions / probes per element (factories round to validity).
  uint32_t num_hashes = 8;

  /// Counter width for counting structures (clamped per scheme).
  uint32_t counter_bits = 8;

  /// Largest representable multiplicity (shbf_x family).
  uint32_t max_count = 64;

  /// t: shifting operations for the generalized ShBF (shbf_g).
  uint32_t num_shifts = 2;

  /// Cuckoo-filter geometry.
  uint32_t bucket_size = 4;
  uint32_t fingerprint_bits = 12;

  /// Word size for the one-memory-access BF.
  uint32_t word_bits = 64;

  /// Sub-word width of the split-block variants (split_block_bloom,
  /// split_block_shbf_m): each probe/pair owns one sub-word of this many
  /// bits inside its block, which is what makes the one-vector-op resolve
  /// possible. Power of two in [8, 64] (the shbf_m layout needs >= 16);
  /// the factories size block_bits from k and this. Ignored elsewhere.
  uint32_t sub_block_bits = 64;

  /// Optional capacity hint; when nonzero the cuckoo factory sizes buckets
  /// from it instead of num_cells.
  size_t expected_keys = 0;

  /// Keys per prefetch group in the batched query engine
  /// (engine/batch_query_engine.h); also the group size of the sharded
  /// wrapper's internal engine. 16–64 covers the useful range.
  uint32_t batch_size = 16;

  /// Shards of the concurrent wrapper (engine/sharded_filter.h). 1 builds
  /// the plain single-shard filter; > 1 makes FilterRegistry::Create return
  /// a thread-safe ShardedMembershipFilter whose shards split num_cells and
  /// expected_keys evenly (total memory stays what the spec asked for).
  uint32_t shards = 1;

  /// Hard ceiling on delta_capacity (16M pending mutations — the delta's
  /// geometry is derived from it, so both Validate and the dynamic
  /// deserializer bound it to keep a small blob from demanding an absurd
  /// allocation).
  static constexpr size_t kMaxDeltaCapacity = size_t{1} << 24;

  /// Pending-mutation budget of the dynamic wrapper
  /// (engine/dynamic_filter.h). 0 builds the plain filter; > 0 makes
  /// FilterRegistry::Create return a DynamicFilter ("dynamic/<base>") that
  /// absorbs adds into a small counting delta and folds them into the
  /// immutable active filter every `delta_capacity` mutations (one epoch) —
  /// the knob that makes bulk-built filters (shbf_x, shbf_a) usable under
  /// interleaved add/query traffic. With shards > 1, each shard gets its own
  /// wrapper with a proportional share of this budget (bounded pause per
  /// shard).
  size_t delta_capacity = 0;

  /// Chain fixed-FPR generations when elements exceed the capacity budget
  /// (engine/auto_scaling_filter.h): the active side becomes an
  /// AutoScalingFilter ("scaling/<base>") that seals the current generation
  /// at its capacity (expected_keys, else num_cells / 12) and opens a
  /// doubled one, so FPR stays bounded under unbounded growth.
  bool auto_scale = false;

  /// Hash family every derived filter draws its functions from.
  HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;

  /// Master seed of that family (experiments are replayable given the spec).
  uint64_t seed = 0x5eed5eed5eed5eedull;

  /// Spec sized for `expected_keys` keys at `bits_per_key` bits each.
  static FilterSpec ForKeys(size_t expected_keys, double bits_per_key,
                            uint32_t num_hashes);

  /// Rejects impossible parameter combinations (zero cells/hashes/shards,
  /// out-of-range counter widths) before any factory runs.
  Status Validate() const;
};

namespace spec_serde {

/// The spec wire layout version written by WriteSpec — tracks the registry
/// envelope version (filter_registry.cc) for the versions that extended the
/// spec record: v4 appended a u32 slot, v5 appended sub_block_bits.
inline constexpr int kSpecWireLatest = 5;

/// Fixed-layout FilterSpec codec used by adapter-level (replay) serde.
/// WriteSpec always writes the latest layout; ReadSpec honors the wire
/// version of the enclosing envelope (see SpecWireVersionScope), defaulting
/// missing trailing fields, so pre-v5 blobs keep loading.
void WriteSpec(ByteWriter* writer, const FilterSpec& spec);
bool ReadSpec(ByteReader* reader, FilterSpec* spec);

/// The envelope version the current deserialization runs under (defaults
/// to kSpecWireLatest when no scope is active).
int CurrentSpecWireVersion();

/// Thread-local RAII scope the registry wraps around payload dispatch:
/// spec records sit mid-payload at several nesting depths (wrappers,
/// shards), so "are the v5 fields present" cannot be inferred from the
/// reader position — the envelope header decides, and nested envelopes
/// each install their own scope.
class SpecWireVersionScope {
 public:
  explicit SpecWireVersionScope(int version);
  ~SpecWireVersionScope();

  SpecWireVersionScope(const SpecWireVersionScope&) = delete;
  SpecWireVersionScope& operator=(const SpecWireVersionScope&) = delete;

 private:
  int saved_;
};

}  // namespace spec_serde
}  // namespace shbf

#endif  // SHBF_API_FILTER_SPEC_H_
