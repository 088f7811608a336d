// The windowed shifting core (paper §3.1, §3.6–3.7): one class behind
// `bloom` (t = 0), `shbf_m` (t = 1) and `shbf_g` (t >= 1).
//
// A key e has g = k/(t+1) base positions h_1(e)%m, ..., h_g(e)%m and t
// offsets; for every base it sets the t + 1 bits {h_i, h_i + o_1(e), ...,
// h_i + o_t(e)}. Offset o_j is confined to the j-th of t equal slices of
// [1, w̄ − 1] (the paper's partitioned analysis):
//     o_j(e) = (j − 1)·(w̄ − 1)/t + h_{g+j}(e) % ((w̄ − 1)/t) + 1,
// so a key's t + 1 bits per base form one need mask, bit 0 plus bit o_j for
// each j. Because o_j < w̄ ≤ w − 7, the whole mask sits inside one unaligned
// 64-bit window load: a query costs g memory accesses and g + t hash
// computations instead of k and k.
//
//   t = 0  the standard Bloom filter: need mask 1, k positions, no slack.
//   t = 1  ShBF_M: o(e) = h_{k/2+1}(e) % (w̄ − 1) + 1, k/2 windows.
//   t > 1  the generalized ShBF_M of §3.6, its FPR drift given by
//          Eq (11)/(12) (analysis/generalized_theory.h).
//
// Shifted writes land up to w̄ − 1 bits past m − 1, so the bit array carries
// w̄ slack bits when t >= 1. The named classes (BloomFilter, ShbfM,
// GeneralizedShbfM) add only their Params, validation and serde layout;
// insert, query, the probe protocol, MergeFrom and Clear live here once.

#ifndef SHBF_SHBF_WINDOWED_FILTER_H_
#define SHBF_SHBF_WINDOWED_FILTER_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class WindowedFilter {
 public:
  /// The geometry every name maps its Params to.
  struct Layout {
    size_t num_bits = 0;           ///< m
    uint32_t num_hashes = 0;       ///< k = (t + 1) · groups bits per key
    uint32_t num_shifts = 0;       ///< t
    uint32_t max_offset_span = 0;  ///< w̄; unused (and 0) when t = 0
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0;

    /// Checks every name shares: t in [0, w̄ − 1], k a positive multiple of
    /// t + 1 and at most m (so a header off the disk cannot ask for an
    /// unbounded seed table), and for t >= 1 a w̄ in [2, 57] whose w̄ − 1
    /// splits into t equal slices. `name` prefixes the message.
    Status Validate(const char* name) const;

    size_t slack_bits() const { return num_shifts == 0 ? 0 : max_offset_span; }

    /// ⌈(m + slack)/8⌉, the serialized payload, computed without overflow.
    uint64_t payload_bytes() const {
      return num_bits / 8 + (num_bits % 8 + slack_bits() + 7) / 8;
    }

    bool operator==(const Layout&) const = default;
  };

  /// Largest k the probe protocol supports.
  static constexpr uint32_t kMaxBatchHashes = 64;

  /// Precomputed query state for one key: every hash evaluated, no filter
  /// memory touched yet. The engine's two-pass batch loop fills a group of
  /// these (PrepareProbe), prefetches their windows (PrefetchProbe), and
  /// only then resolves (ResolveProbe) — by which point the cache lines are
  /// resident or in flight.
  struct Probe {
    uint64_t need;                  ///< bit 0 | bit o_j(e) for every j
    size_t bases[kMaxBatchHashes];  ///< h_i(e) % m for i < num_groups()
  };

  /// Inserts `key`: g + t hash computations, k bits set.
  void Add(std::string_view key) { Add(key.data(), key.size()); }
  void Add(const void* data, size_t len);

  /// Membership query; no false negatives. g window loads worst case,
  /// early exit on the first window missing a bit of the need mask.
  bool Contains(std::string_view key) const {
    return Contains(key.data(), key.size());
  }
  bool Contains(const void* data, size_t len) const;

  /// Query under the paper's cost model: one memory access per window
  /// probed, one hash per function actually evaluated.
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// Computes `key`'s g base positions and need mask (hashes only; no
  /// memory access). Requires num_hashes() <= kMaxBatchHashes.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch every window `probe` will load.
  void PrefetchProbe(const Probe& probe) const {
    for (uint32_t i = 0; i < groups_; ++i) bits_.Prefetch(probe.bases[i]);
  }

  /// Resolves a prepared probe; identical answer to Contains(key).
  bool ResolveProbe(const Probe& probe) const {
    for (uint32_t i = 0; i < groups_; ++i) {
      if (!Holds(probe.bases[i], probe.need)) return false;
    }
    return true;
  }

  /// The t offsets of `key`, ascending; offset j lies in slice j.
  std::vector<uint64_t> OffsetsOf(std::string_view key) const;

  size_t num_bits() const { return layout_.num_bits; }
  uint32_t num_hashes() const { return layout_.num_hashes; }
  uint32_t num_shifts() const { return layout_.num_shifts; }
  uint32_t num_groups() const { return groups_; }
  uint32_t max_offset_span() const { return layout_.max_offset_span; }
  HashAlgorithm hash_algorithm() const { return layout_.hash_algorithm; }
  uint64_t seed() const { return layout_.seed; }
  size_t num_elements() const { return num_elements_; }
  const BitArray& bits() const { return bits_; }

  void Clear();

  /// Set-union: ORs `other`'s bits into this one (Add only ever sets bits,
  /// so the OR answers exactly like inserting both key sets). The layouts
  /// must be equal. num_elements() becomes the sum, an upper bound on the
  /// union's distinct keys.
  Status MergeFrom(const WindowedFilter& other);

 protected:
  explicit WindowedFilter(const Layout& layout);

  /// Wraps externally stored bits (a BitArray::View into an mmap'd image
  /// region) without copying. The view's num_bits and slack must match the
  /// layout; the registry's mapped opener validates the on-disk geometry
  /// before constructing. Read-only usage.
  WindowedFilter(const Layout& layout, BitArray bits, size_t num_elements);

  /// The tail every name's FromBytes shares, after its parameter block:
  /// validates `params` and refuses a payload whose length is not the
  /// layout's before anything is allocated, then reads the bits.
  template <typename Named>
  static Status Restore(const char* name, const typename Named::Params& params,
                        uint64_t num_elements, ByteReader* reader,
                        std::optional<Named>* out) {
    Status valid = params.Validate();
    if (!valid.ok()) return valid;
    if (reader->remaining() != params.layout().payload_bytes()) {
      return Status::InvalidArgument(std::string(name) +
                                     ": payload size mismatch");
    }
    out->emplace(params);
    (*out)->num_elements_ = num_elements;
    SHBF_CHECK((*out)->bits_.ReadPayload(reader));
    return Status::Ok();
  }

 private:
  /// Whether the window at `base` has every bit of `need` set, and the
  /// write that sets them. A one-bit mask (t = 0) touches one byte: an
  /// 8-byte window straddles a cache line at 7 of every 64 positions, and
  /// each straddle is a second miss.
  bool Holds(size_t base, uint64_t need) const {
    return need == 1 ? bits_.GetBit(base)
                     : (bits_.LoadWindow(base) & need) == need;
  }
  void Set(size_t base, uint64_t need) {
    if (need == 1) {
      bits_.SetBit(base);
    } else {
      bits_.OrWindow(base, need);
    }
  }

  /// The need mask from the key bound to this filter's family. Inline:
  /// every query and insert starts with it.
  uint64_t NeedMask(const HashFamily::BoundKey& h) const {
    uint64_t mask = 1;  // the base bit
    for (uint32_t j = 0; j < layout_.num_shifts; ++j) {
      mask |= uint64_t{1} << (j * partition_width_ +
                              h(groups_ + j) % partition_width_ + 1);
    }
    return mask;
  }

  Layout layout_;
  uint32_t groups_;           // g = k / (t + 1)
  uint32_t partition_width_;  // (w̄ − 1) / t; 0 when t = 0
  HashFamily family_;         // g base functions, then t offset functions
  BitArray bits_;
  size_t num_elements_ = 0;
};

}  // namespace shbf

#endif  // SHBF_SHBF_WINDOWED_FILTER_H_
