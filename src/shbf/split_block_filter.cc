#include "shbf/split_block_filter.h"

#include <algorithm>
#include <cstring>

#include "core/rng.h"

namespace shbf {
namespace {

// Runs the layout's checks before any member is built from it.
const SplitBlockFilter::Layout& Checked(const SplitBlockFilter::Layout& layout) {
  CheckOk(layout.Validate("SplitBlockFilter"));
  return layout;
}

// The layout with m rounded up to whole blocks.
SplitBlockFilter::Layout Aligned(const SplitBlockFilter::Layout& layout) {
  SplitBlockFilter::Layout aligned = Checked(layout);
  aligned.num_bits = RoundUp(layout.num_bits, layout.block_bits);
  return aligned;
}

}  // namespace

Status SplitBlockFilter::Layout::Validate(const char* name) const {
  const auto bad = [name](const char* what) {
    return Status::InvalidArgument(std::string(name) + ": " + what);
  };
  if (num_bits == 0) return bad("num_bits must be positive");
  if (num_hashes == 0 || num_hashes > kMaxBatchHashes) {
    return bad("num_hashes must be in [1, 64]");
  }
  if (block_bits < kMinBlockBits || block_bits > kMaxBlockBits ||
      block_bits % 64 != 0) {
    return bad("block_bits must be a multiple of 64 in [64, 512]");
  }
  if (sub_block_bits < 8 || sub_block_bits > 64 ||
      !IsPowerOfTwo(uint64_t{sub_block_bits})) {
    // Powers of two <= 64 divide 64, so a sub-word never straddles a word —
    // the invariant the one-shift-per-slot mask build relies on.
    return bad("sub_block_bits must be a power of two in [8, 64]");
  }
  if (max_offset_span == 0) return Status::Ok();
  if (num_hashes % 2 != 0) return bad("num_hashes must be even (k/2 pairs)");
  if (sub_block_bits < 16) {
    return bad("sub_block_bits must be at least 16 for pairs");
  }
  if (max_offset_span < 2 || max_offset_span >= sub_block_bits) {
    return bad("max_offset_span must be in [2, sub_block_bits) so offsets "
               "are nonzero and a pair fits inside one sub-word");
  }
  return Status::Ok();
}

// Blocks are self-contained, so the bit array has no slack bits.
SplitBlockFilter::SplitBlockFilter(const Layout& layout)
    : SplitBlockFilter(Aligned(layout), BitArray(Aligned(layout).num_bits, 0),
                       0) {}

SplitBlockFilter::SplitBlockFilter(const Layout& layout, BitArray bits,
                                   size_t num_elements)
    : layout_(Checked(layout)),
      slots_(layout.max_offset_span == 0 ? layout.num_hashes
                                         : layout.num_hashes / 2),
      num_blocks_(layout.num_bits / layout.block_bits),
      family_(layout.hash_algorithm, 2, layout.seed),
      bits_(std::move(bits)),
      num_elements_(num_elements) {
  SHBF_CHECK(layout.num_bits % layout.block_bits == 0 &&
             bits_.num_bits() == layout.num_bits &&
             bits_.total_bits() == layout.num_bits)
      << "adopted bits don't match the layout";
  const uint32_t num_sub = num_sub_blocks();
  for (uint32_t i = 0; i < slots_; ++i) {
    const uint32_t first_bit = (i % num_sub) * layout.sub_block_bits;
    word_of_[i] = static_cast<uint8_t>(first_bit / 64);
    base_shift_[i] = static_cast<uint8_t>(first_bit % 64);
    rot_word_[i] = static_cast<uint8_t>(i / kFieldsPerWord);
    rot_shift_[i] = static_cast<uint8_t>(6 * (i % kFieldsPerWord));
  }
  num_rot_words_ = (slots_ + kFieldsPerWord - 1) / kFieldsPerWord;
}

// ONE 128-bit pass over the key bytes derives everything: the block from
// h1's high bits, the offset from a golden-multiplied fold of h1, and the
// slot rotations from disjoint 6-bit fields of h2 (parallel Mix64 words past
// 10 slots). A single-bit slot's offset is 0, so its two bits coincide.
void SplitBlockFilter::DeriveProbe(const void* data, size_t len,
                                   size_t* block_word, uint64_t* mask) const {
  const auto [h1, h2] = family_.HashPair(0, data, len);
  *block_word = FastRange64(h1, num_blocks_) * block_words();
  bits_.Prefetch(*block_word * 64);
  const uint64_t offset = Offset(h1);
  uint64_t pool[kMaxRotWords];
  pool[0] = h2;
  for (uint32_t j = 1; j < num_rot_words_; ++j) {
    pool[j] = Mix64(h1 + 0x9e3779b97f4a7c15ull * j);
  }
  std::fill(mask, mask + block_words(), 0);
  const uint64_t sub_mask = layout_.sub_block_bits - 1;
  for (uint32_t i = 0; i < slots_; ++i) {
    const uint64_t rotation = (pool[rot_word_[i]] >> rot_shift_[i]) & sub_mask;
    mask[word_of_[i]] |=
        (uint64_t{1} << (base_shift_[i] + rotation)) |
        (uint64_t{1} << (base_shift_[i] + ((rotation + offset) & sub_mask)));
  }
}

void SplitBlockFilter::Add(const void* data, size_t len) {
  uint64_t mask[kMaxBlockWords];
  size_t block_word;
  DeriveProbe(data, len, &block_word, mask);
  uint8_t* block = bits_.mutable_data() + block_word * 8;
  for (uint32_t w = 0; w < block_words(); ++w) {
    uint64_t word;
    std::memcpy(&word, block + w * 8, sizeof(word));
    word |= mask[w];
    std::memcpy(block + w * 8, &word, sizeof(word));
  }
  ++num_elements_;
}

bool SplitBlockFilter::Contains(const void* data, size_t len) const {
  Probe probe;
  DeriveProbe(data, len, &probe.block_word, probe.mask);
  return ResolveProbe(probe);
}

bool SplitBlockFilter::ContainsWithStats(std::string_view key,
                                         QueryStats* stats) const {
  ++stats->queries;
  stats->hash_computations += 1;
  ++stats->memory_accesses;
  return Contains(key.data(), key.size());
}

void SplitBlockFilter::Clear() {
  bits_.Clear();
  num_elements_ = 0;
}

Status SplitBlockFilter::MergeFrom(const SplitBlockFilter& other) {
  if (layout_ != other.layout_ || !bits_.OrWith(other.bits_)) {
    return Status::FailedPrecondition(
        "MergeFrom: layouts differ (geometry, hash family, seed or offsets)");
  }
  num_elements_ += other.num_elements_;
  return Status::Ok();
}

}  // namespace shbf
