#include "baselines/split_block_bloom_filter.h"

#include <algorithm>
#include <cstring>

#include "core/bits.h"
#include "core/rng.h"

namespace shbf {

Status SplitBlockBloomFilter::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument(
        "SplitBlockBloomFilter: num_bits must be positive");
  }
  if (num_hashes == 0 || num_hashes > kMaxBatchHashes) {
    return Status::InvalidArgument(
        "SplitBlockBloomFilter: num_hashes must be in [1, 64]");
  }
  if (block_bits < kMinBlockBits || block_bits > kMaxBlockBits ||
      block_bits % 64 != 0) {
    return Status::InvalidArgument(
        "SplitBlockBloomFilter: block_bits must be a multiple of 64 in "
        "[64, 512]");
  }
  if (sub_block_bits < 8 || sub_block_bits > 64 ||
      !IsPowerOfTwo(sub_block_bits)) {
    // Powers of two <= 64 divide 64, so a sub-word never straddles a word —
    // the invariant the one-shift-per-probe mask build relies on.
    return Status::InvalidArgument(
        "SplitBlockBloomFilter: sub_block_bits must be a power of two in "
        "[8, 64]");
  }
  return Status::Ok();
}

SplitBlockBloomFilter::SplitBlockBloomFilter(const Params& params)
    : family_(params.hash_algorithm, 2, params.seed),
      num_hashes_(params.num_hashes),
      block_bits_(params.block_bits),
      sub_block_bits_(params.sub_block_bits),
      num_blocks_(CeilDiv(params.num_bits, size_t{params.block_bits})),
      // Blocks are self-contained, so no slack bits.
      bits_(num_blocks_ * params.block_bits, /*slack_bits=*/0) {
  CheckOk(params.Validate());
  BuildLayout();
}

SplitBlockBloomFilter::SplitBlockBloomFilter(const Params& params,
                                             BitArray bits,
                                             size_t num_elements)
    : family_(params.hash_algorithm, 2, params.seed),
      num_hashes_(params.num_hashes),
      block_bits_(params.block_bits),
      sub_block_bits_(params.sub_block_bits),
      num_blocks_(params.num_bits / params.block_bits),
      bits_(std::move(bits)),
      num_elements_(num_elements) {
  CheckOk(params.Validate());
  SHBF_CHECK(params.num_bits % params.block_bits == 0 &&
             bits_.num_bits() == params.num_bits &&
             bits_.total_bits() == params.num_bits)
      << "split_block_bloom: adopted bits don't match the spec geometry";
  BuildLayout();
}

void SplitBlockBloomFilter::BuildLayout() {
  const uint32_t num_sub = block_bits_ / sub_block_bits_;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const uint32_t sub = i % num_sub;
    const uint32_t first_bit = sub * sub_block_bits_;
    word_of_[i] = static_cast<uint8_t>(first_bit / 64);
    base_shift_[i] = static_cast<uint8_t>(first_bit % 64);
    rot_word_[i] = static_cast<uint8_t>(i / kFieldsPerWord);
    rot_shift_[i] = static_cast<uint8_t>(6 * (i % kFieldsPerWord));
  }
  num_rot_words_ = (num_hashes_ + kFieldsPerWord - 1) / kFieldsPerWord;
}

// ONE 128-bit pass over the key bytes derives everything: the block from
// h1 (multiply-shift range reduction — high bits), the k in-sub-word
// positions from disjoint 6-bit fields of h2 (low 60 bits), with extra
// position words derived by PARALLEL Mix64 calls when k > 10. Nothing here
// chains — an earlier derivation built the positions from a serial
// SplitMix64 stream, and that latency chain made the split per-key query
// measurably SLOWER than the blocked layout it replaced. The block
// prefetch is issued as soon as the block index exists, so the position
// math and the k independent shift/ORs run inside the line fetch.
void SplitBlockBloomFilter::DeriveProbe(const void* data, size_t len,
                                        size_t* block_word,
                                        uint64_t* mask) const {
  const auto [h1, h2] = family_.HashPair(0, data, len);
  *block_word = FastRange64(h1, num_blocks_) * (block_bits_ / 64);
  bits_.Prefetch(*block_word * 64);
  uint64_t pool[kMaxRotWords];
  pool[0] = h2;
  for (uint32_t j = 1; j < num_rot_words_; ++j) {
    pool[j] = Mix64(h1 + 0x9e3779b97f4a7c15ull * j);
  }
  std::fill(mask, mask + block_bits_ / 64, 0);
  const uint64_t sub_mask = sub_block_bits_ - 1;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const uint64_t pos = (pool[rot_word_[i]] >> rot_shift_[i]) & sub_mask;
    mask[word_of_[i]] |= uint64_t{1} << (base_shift_[i] + pos);
  }
}

void SplitBlockBloomFilter::Add(const void* data, size_t len) {
  uint64_t mask[kMaxBlockWords];
  size_t block_word;
  DeriveProbe(data, len, &block_word, mask);
  uint8_t* block = bits_.mutable_data() + block_word * 8;
  const uint32_t words = block_bits_ / 64;
  for (uint32_t w = 0; w < words; ++w) {
    uint64_t word;
    std::memcpy(&word, block + w * 8, sizeof(word));
    word |= mask[w];
    std::memcpy(block + w * 8, &word, sizeof(word));
  }
  ++num_elements_;
}

bool SplitBlockBloomFilter::Contains(const void* data, size_t len) const {
  uint64_t mask[kMaxBlockWords];
  size_t block_word;
  DeriveProbe(data, len, &block_word, mask);
  return BlockSubsetTest(bits_.data() + block_word * 8, mask,
                         block_bits_ / 64);
}

bool SplitBlockBloomFilter::ContainsWithStats(std::string_view key,
                                              QueryStats* stats) const {
  ++stats->queries;
  // One block = one memory access regardless of k; ONE 128-bit key pass
  // derives the block and every sub-word probe (non-murmur algorithms fall
  // back to two passes, which this model does not charge for).
  stats->hash_computations += 1;
  ++stats->memory_accesses;
  return Contains(key.data(), key.size());
}

void SplitBlockBloomFilter::PrepareProbe(std::string_view key,
                                         Probe* probe) const {
  DeriveProbe(key.data(), key.size(), &probe->block_word, probe->mask);
}

bool SplitBlockBloomFilter::ResolveProbe(const Probe& probe) const {
  return BlockSubsetTest(bits_.data() + probe.block_word * 8, probe.mask,
                         block_bits_ / 64);
}

void SplitBlockBloomFilter::Clear() {
  bits_.Clear();
  num_elements_ = 0;
}

Status SplitBlockBloomFilter::MergeFrom(const SplitBlockBloomFilter& other) {
  if (family_.algorithm() != other.family_.algorithm() ||
      family_.master_seed() != other.family_.master_seed() ||
      num_hashes_ != other.num_hashes_ ||
      block_bits_ != other.block_bits_ ||
      sub_block_bits_ != other.sub_block_bits_) {
    return Status::FailedPrecondition(
        "SplitBlockBloomFilter::MergeFrom: hash families differ");
  }
  if (!bits_.OrWith(other.bits_)) {
    return Status::FailedPrecondition(
        "SplitBlockBloomFilter::MergeFrom: geometry differs");
  }
  num_elements_ += other.num_elements_;
  return Status::Ok();
}

std::string SplitBlockBloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kSplitBlockBloomFilter);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(block_bits_);
  writer.PutU32(sub_block_bits_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(num_elements_);
  bits_.AppendPayload(&writer);
  return writer.Take();
}

Status SplitBlockBloomFilter::FromBytes(
    std::string_view bytes, std::optional<SplitBlockBloomFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kSplitBlockBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t block_bits = 0;
  uint32_t sub_block_bits = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_elements = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&block_bits) || !reader.GetU32(&sub_block_bits) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed) ||
      !reader.GetU64(&num_elements)) {
    return Status::InvalidArgument(
        "SplitBlockBloomFilter: truncated parameter block");
  }
  if (alg > 3) {
    return Status::InvalidArgument("SplitBlockBloomFilter: unknown hash id");
  }
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .block_bits = block_bits,
                .sub_block_bits = sub_block_bits,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  if (num_bits % block_bits != 0) {
    return Status::InvalidArgument(
        "SplitBlockBloomFilter: num_bits not block-aligned");
  }
  out->emplace(params);
  (*out)->num_elements_ = num_elements;
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("SplitBlockBloomFilter: payload mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
