// ShBF_X — the Shifting Bloom Filter for multiplicity queries (paper §5).
//
// For a multi-set, the auxiliary information is an element's count c(e); the
// offset function is simply o(e) = c(e) − 1, so the k bits
// B[h_i(e)%m + c(e) − 1] are set — k bits per *element*, regardless of its
// multiplicity (a CBF/spectral filter spends counters; ShBF_X spends none).
//
// A query scans, per hash, the c-bit window starting at the base position
// (⌈c/w̄⌉ unaligned loads) and intersects the "all k bits set at j − 1"
// candidates across hashes. The true count always survives, so:
//   * the candidate list always contains the true multiplicity (no FNs),
//   * reporting the LARGEST candidate never underestimates (§5.2),
//   * intersection lets the scan terminate as soon as ≤ 1 candidate remains,
//     which is what makes Fig 11(b)'s access counts flatten for large k
//     (see DESIGN.md §4 item 5 for the inference).
//
// CountingShbfX adds the §5.3 update paths: a counter array keeps B
// clearable, and multiplicity moves are delete-old-offset / insert-new-offset.
// In kFilterQueried mode the current count is read from B itself and false
// negatives can leak in (§5.3.1); in kTableBacked mode an exact hash table
// supplies it and the structure stays FN-free (§5.3.2).

#ifndef SHBF_SHBF_SHBF_MULTIPLICITY_H_
#define SHBF_SHBF_SHBF_MULTIPLICITY_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/serde.h"
#include "core/chained_hash_table.h"
#include "core/packed_counter_array.h"
#include "core/query_stats.h"
#include "core/set_query_types.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

/// Parameters shared by ShbfX and CountingShbfX.
struct ShbfXParams {
  size_t num_bits = 0;      ///< m
  uint32_t num_hashes = 0;  ///< k
  uint32_t max_count = 0;   ///< c: the largest representable multiplicity
  HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
  uint64_t seed = 0x5eed5eed5eed5eedull;

  /// Candidate masks use fixed stack storage; c is capped accordingly.
  static constexpr uint32_t kMaxSupportedCount = 512;

  Status Validate() const;
};

class ShbfX {
 public:
  explicit ShbfX(const ShbfXParams& params);

  /// Bulk construction: tallies the multiset in an internal collision-chain
  /// hash table (§5.1), then stores each distinct element once with its
  /// final count. Counts above max_count are a caller bug (CHECK).
  void Build(const std::vector<std::string>& multiset);

  /// Stores `key` with multiplicity `count` ∈ [1, max_count] directly.
  /// Each distinct key must be inserted at most once (§5.4: "ShBF_X only
  /// sets k bits regardless of how many times e appears").
  void InsertWithCount(std::string_view key, uint32_t count);

  /// All candidate multiplicities, ascending. Contains the true count of any
  /// stored key (no false negatives); may contain extra (false) candidates.
  /// Empty means "definitely not in the multi-set".
  std::vector<uint32_t> QueryCandidates(std::string_view key) const;

  /// Single-answer query: 0 = not present; otherwise the candidate chosen by
  /// `policy`. The scan stops early once at most one candidate survives.
  uint32_t QueryCount(std::string_view key,
                      MultiplicityReportPolicy policy =
                          MultiplicityReportPolicy::kLargest) const;
  uint32_t QueryCountWithStats(std::string_view key,
                               MultiplicityReportPolicy policy,
                               QueryStats* stats) const;

  /// Largest k the probe/batch paths support.
  static constexpr uint32_t kMaxBatchHashes = 64;

  /// Precomputed query state for one key (hashes only, no filter memory
  /// touched); see WindowedFilter::Probe for the two-pass batch protocol.
  struct Probe {
    size_t bases[kMaxBatchHashes];  ///< h_i(e) % m for i < num_hashes()
  };

  /// Computes `key`'s k base positions. Requires num_hashes() <= 64.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch every line the candidate-window gathers of a
  /// prepared probe may touch.
  void PrefetchProbe(const Probe& probe) const;

  /// Resolves a prepared probe; identical answer to QueryCount(key, policy).
  uint32_t ResolveProbe(const Probe& probe,
                        MultiplicityReportPolicy policy =
                            MultiplicityReportPolicy::kLargest) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
  uint32_t max_count() const { return max_count_; }
  size_t num_distinct() const { return num_distinct_; }
  const BitArray& bits() const { return bits_; }
  void Clear();

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes, std::optional<ShbfX>* out);

 private:
  friend class CountingShbfX;

  static constexpr uint32_t kMaskWords =
      ShbfXParams::kMaxSupportedCount / 64 + 1;

  /// Intersects the window bits of hash i into `mask` (mask words cover
  /// count offsets 0..c−1). Returns the number of window loads performed.
  uint32_t GatherWindows(size_t base, uint64_t* mask) const;

  /// Shared body of QueryCountWithStats and ResolveProbe: `base_of(i)`
  /// supplies h_i(e) % m — hashed lazily in the scalar path (so early exits
  /// skip hash work) and read from the precomputed probe in the batch path.
  template <typename BaseFn>
  uint32_t QueryCountImpl(BaseFn&& base_of, MultiplicityReportPolicy policy,
                          QueryStats* stats) const;

  HashFamily family_;
  uint32_t num_hashes_;
  uint32_t max_count_;
  BitArray bits_;
  size_t num_distinct_ = 0;
};

class CountingShbfX {
 public:
  enum class UpdateMode {
    /// §5.3.1: reads the current multiplicity from the filter itself; false
    /// positives during that read can convert into false negatives.
    kFilterQueried = 0,
    /// §5.3.2: an exact hash table (off-chip in the paper's architecture)
    /// supplies the current multiplicity; no false negatives, more memory.
    kTableBacked = 1,
  };

  struct Params {
    ShbfXParams filter;
    uint32_t counter_bits = 8;
    UpdateMode mode = UpdateMode::kTableBacked;

    Status Validate() const;
  };

  explicit CountingShbfX(const Params& params);

  /// Adds one occurrence of `key` (multiplicity z → z + 1). CHECK-fails past
  /// max_count.
  void Insert(std::string_view key);

  /// Removes one occurrence (z → z − 1); returns false if the structure
  /// believes the key is absent.
  bool Delete(std::string_view key);

  /// Queries the bit array (same semantics as ShbfX).
  uint32_t QueryCount(std::string_view key,
                      MultiplicityReportPolicy policy =
                          MultiplicityReportPolicy::kLargest) const {
    return filter_.QueryCount(key, policy);
  }
  std::vector<uint32_t> QueryCandidates(std::string_view key) const {
    return filter_.QueryCandidates(key);
  }

  /// Exact count from the backing table (kTableBacked only).
  uint64_t ExactCount(std::string_view key) const;

  /// Enumerates (key, exact count) pairs from the backing table
  /// (serde/replication hook; kTableBacked mode only).
  void ForEachExactCount(
      const std::function<void(std::string_view, uint64_t)>& fn) const {
    exact_counts_.ForEach(fn);
  }

  UpdateMode mode() const { return mode_; }
  bool SynchronizedWithCounters() const;

  /// Clears to the empty structure (filter, counters and exact table).
  void Clear() {
    filter_.Clear();
    counters_.Clear();
    exact_counts_.Clear();
  }

 private:
  /// The structure's belief about `key`'s current multiplicity.
  uint32_t CurrentCount(std::string_view key) const;

  void AddCells(const HashFamily::BoundKey& h, uint32_t count_offset);

  /// Decrements the k cells at `count_offset`. In kFilterQueried mode the
  /// removal may target cells this key never incremented (a false-positive
  /// read of the current count, §5.3.1), so zero cells are skipped instead
  /// of CHECKed — this is precisely how that mode corrupts state.
  void RemoveCells(const HashFamily::BoundKey& h, uint32_t count_offset);

  ShbfX filter_;
  PackedCounterArray counters_;
  UpdateMode mode_;
  ChainedHashTable exact_counts_;  // used in kTableBacked mode
};

}  // namespace shbf

#endif  // SHBF_SHBF_SHBF_MULTIPLICITY_H_
