// The split-block core (cf. Boost.Bloom's multiblock<> subfilters): one
// class behind `split_block_bloom` and `split_block_shbf_m`, whose query is
// one block read and one subset test.
//
// A blocked Bloom filter (Putze/Sanders/Singler) confines a key's probes to
// one cache-line block, but derives each probe position with a serial
// modulo/scatter chain. The split-block layout divides the block into
// `sub_block_bits`-wide sub-words and pins probe slot i to sub-word
// i % num_sub, so the slot-to-word mapping is key-independent and the whole
// derivation goes wide:
//
//   * ONE 128-bit hash pass (HashFamily::HashPair) picks the block, every
//     rotation and the offset;
//   * the block index is a multiply-shift range reduction (FastRange64),
//     not a division;
//   * slot i's rotation r is a disjoint 6-bit FIELD of h2 (plus parallel
//     Mix64 words past 10 slots): no serial SplitMix64 chain, which an
//     earlier derivation walked and measured SLOWER than the blocked layout
//     it replaced;
//   * the mask is independent shift/ORs, built inside the block fetch (the
//     prefetch is issued as soon as the block index exists).
//
// What a slot sets in its sub-word is the one difference between the names:
//
//   * max_offset_span == 0 (split_block_bloom): one bit at r, k slots;
//   * max_offset_span == w̄ (split_block_shbf_m): a ShBF_M pair on the
//     sub-word's CIRCLE, bits r and (r + o(e)) mod sub_block_bits, with one
//     offset o(e) ∈ [1, w̄ − 1] per key and k/2 slots. The circular
//     placement keeps per-bit fill uniform; clamping bases to [0, s − w̄]
//     instead piles every first bit into the low end of the sub-word and
//     measurably breaks the 2x FPR budget.
//
// The resolve is one whole-block subset test (BlockSubsetTest, core/bits.h).
// Geometry: sub_block_bits a power of two in [8, 64] (so a sub-word never
// straddles a 64-bit word), block_bits a multiple of 64 in [64, 512]. Keys
// sharing a block collide more than in the unblocked layouts; the bench's
// acceptance gate bounds the penalty at 2x at equal bits/key.

#ifndef SHBF_SHBF_SPLIT_BLOCK_FILTER_H_
#define SHBF_SHBF_SPLIT_BLOCK_FILTER_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class SplitBlockFilter {
 public:
  /// A block is at most one cache line: a probe mask fits 8 words.
  static constexpr uint32_t kMinBlockBits = 64;
  static constexpr uint32_t kMaxBlockBits = 512;
  static constexpr uint32_t kMaxBlockWords = kMaxBlockBits / 64;

  /// Largest k the probe protocol supports.
  static constexpr uint32_t kMaxBatchHashes = 64;

  /// The geometry every name maps its Params to.
  struct Layout {
    size_t num_bits = 0;       ///< m; rounded up to a multiple of block_bits
    uint32_t num_hashes = 0;   ///< k bits per key
    uint32_t block_bits = 0;   ///< multiple of 64 in [64, 512]
    uint32_t sub_block_bits = 0;  ///< power of two in [8, 64]
    /// 0: one bit per slot. Otherwise w̄, and each slot is a pair whose
    /// offset lies in [1, w̄ − 1], below sub_block_bits.
    uint32_t max_offset_span = 0;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0;

    /// Checks every name shares; `name` prefixes the message. Pairs need an
    /// even k, sub-words of at least 16 bits (8-bit sub-words would leave at
    /// most 7 pair positions and the FPR collapses) and 2 <= w̄ <
    /// sub_block_bits, so a pair never leaves its sub-word.
    Status Validate(const char* name) const;

    bool operator==(const Layout&) const = default;
  };

  /// Precomputed query state: the block and every bit the key needs in it.
  struct Probe {
    size_t block_word;              ///< first word of the block
    uint64_t mask[kMaxBlockWords];  ///< bits the key needs set
  };

  /// Inserts `key`: one 128-bit hash pass, k bits set inside one block.
  void Add(std::string_view key) { Add(key.data(), key.size()); }
  void Add(const void* data, size_t len);

  /// Membership query; no false negatives. One block read, one subset test.
  bool Contains(std::string_view key) const {
    return Contains(key.data(), key.size());
  }
  bool Contains(const void* data, size_t len) const;

  /// Query under the paper's cost model: the whole block is one memory
  /// access, and the single HashPair pass one hash computation (non-murmur
  /// algorithms fall back to two passes, which this model does not charge).
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// Computes `key`'s block and mask (one hash pass + shift/ORs); also
  /// issues the block prefetch, so the mask math overlaps the fetch.
  void PrepareProbe(std::string_view key, Probe* probe) const {
    DeriveProbe(key.data(), key.size(), &probe->block_word, probe->mask);
  }

  /// Resolves a prepared probe; identical answer to Contains(key).
  bool ResolveProbe(const Probe& probe) const {
    return BlockSubsetTest(bits_.data() + probe.block_word * 8, probe.mask,
                           block_words());
  }

  /// The offset o(key) ∈ [1, max_offset_span − 1]; 0 for single bits.
  uint64_t OffsetOf(std::string_view key) const {
    return Offset(family_.HashPair(0, key.data(), key.size()).first);
  }

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return layout_.num_hashes; }
  uint32_t max_offset_span() const { return layout_.max_offset_span; }
  uint32_t block_bits() const { return layout_.block_bits; }
  uint32_t block_words() const { return layout_.block_bits / 64; }
  uint32_t sub_block_bits() const { return layout_.sub_block_bits; }
  uint32_t num_sub_blocks() const {
    return layout_.block_bits / layout_.sub_block_bits;
  }
  HashAlgorithm hash_algorithm() const { return layout_.hash_algorithm; }
  uint64_t seed() const { return layout_.seed; }
  size_t num_elements() const { return num_elements_; }
  const BitArray& bits() const { return bits_; }

  void Clear();

  /// Set-union via bitwise OR; the layouts must be equal.
  Status MergeFrom(const SplitBlockFilter& other);

 protected:
  explicit SplitBlockFilter(const Layout& layout);

  /// Wraps externally stored bits (a BitArray::View into an mmap'd image
  /// region) without copying. `layout.num_bits` must already be block-
  /// aligned and equal the view's num_bits (slack 0); the registry's mapped
  /// opener validates the on-disk geometry first. Read-only usage.
  SplitBlockFilter(const Layout& layout, BitArray bits, size_t num_elements);

  /// The tail every name's FromBytes shares, after its parameter block:
  /// validates `params` and refuses an unaligned m or a payload whose
  /// length is not m/8 before anything is allocated, then reads the bits.
  template <typename Named>
  static Status Restore(const char* name, const typename Named::Params& params,
                        uint64_t num_elements, ByteReader* reader,
                        std::optional<Named>* out) {
    Status valid = params.Validate();
    if (!valid.ok()) return valid;
    if (params.num_bits % params.block_bits != 0) {
      return Status::InvalidArgument(std::string(name) +
                                     ": num_bits not block-aligned");
    }
    if (reader->remaining() != params.num_bits / 8) {
      return Status::InvalidArgument(std::string(name) + ": payload mismatch");
    }
    out->emplace(params);
    (*out)->num_elements_ = num_elements;
    SHBF_CHECK((*out)->bits_.ReadPayload(reader));
    return Status::Ok();
  }

 private:
  /// 6-bit rotation fields per 64-bit pool word; pool word 0 is h2 itself,
  /// further words are parallel Mix64 derivations (no serial chain).
  static constexpr uint32_t kFieldsPerWord = 10;
  static constexpr uint32_t kMaxRotWords =
      (kMaxBatchHashes + kFieldsPerWord - 1) / kFieldsPerWord;

  /// o(e) from h1: the block consumed h1's high bits, so a golden multiply
  /// re-mixes them before the offset's own high-bit range reduction.
  uint64_t Offset(uint64_t h1) const {
    return layout_.max_offset_span == 0
               ? 0
               : FastRange64(h1 * 0x9e3779b97f4a7c15ull,
                             layout_.max_offset_span - 1) +
                     1;
  }

  /// One hash pass; hands back the block's first word (prefetched) and the
  /// mask (slot i's bits OR'd into mask[word_of_[i]]).
  void DeriveProbe(const void* data, size_t len, size_t* block_word,
                   uint64_t* mask) const;

  Layout layout_;
  uint32_t slots_;  // k single bits, or k/2 pairs
  size_t num_blocks_;
  HashFamily family_;  // one 128-bit pass
  BitArray bits_;
  size_t num_elements_ = 0;

  /// Slot i's block word and its sub-word's bit offset inside that word
  /// (key-independent because sub_block_bits divides 64), and which
  /// rotation-pool word its 6-bit field lives in, at which shift.
  uint8_t word_of_[kMaxBatchHashes];
  uint8_t base_shift_[kMaxBatchHashes];
  uint8_t rot_word_[kMaxBatchHashes];
  uint8_t rot_shift_[kMaxBatchHashes];
  uint32_t num_rot_words_ = 1;
};

}  // namespace shbf

#endif  // SHBF_SHBF_SPLIT_BLOCK_FILTER_H_
