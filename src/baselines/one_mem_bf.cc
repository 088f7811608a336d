#include "baselines/one_mem_bf.h"

#include "core/bits.h"

namespace shbf {

Status OneMemBloomFilter::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("1MemBF: num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("1MemBF: num_hashes must be positive");
  }
  if (!IsPowerOfTwo(word_bits) || word_bits > 64 || word_bits < 8) {
    return Status::InvalidArgument(
        "1MemBF: word_bits must be a power of two in [8, 64]");
  }
  return Status::Ok();
}

OneMemBloomFilter::OneMemBloomFilter(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes + 1, params.seed),
      num_hashes_(params.num_hashes),
      word_bits_(params.word_bits),
      num_words_(CeilDiv(params.num_bits, params.word_bits)) {
  CheckOk(params.Validate());
  words_.assign(num_words_, 0);
}

std::pair<size_t, uint64_t> OneMemBloomFilter::WordAndMask(
    std::string_view key) const {
  const auto h = family_.Bind(key);
  size_t word = h(0) % num_words_;
  uint64_t mask = 0;
  for (uint32_t i = 1; i <= num_hashes_; ++i) {
    mask |= 1ull << (h(i) & (word_bits_ - 1));
  }
  return {word, mask};
}

void OneMemBloomFilter::Add(std::string_view key) {
  auto [word, mask] = WordAndMask(key);
  words_[word] |= mask;
}

bool OneMemBloomFilter::Contains(std::string_view key) const {
  auto [word, mask] = WordAndMask(key);
  return (words_[word] & mask) == mask;
}

bool OneMemBloomFilter::ContainsWithStats(std::string_view key,
                                          QueryStats* stats) const {
  ++stats->queries;
  stats->hash_computations += num_hashes_ + 1;
  ++stats->memory_accesses;  // the scheme's whole point: one word load
  return Contains(key);
}

void OneMemBloomFilter::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
}

std::string OneMemBloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kOneMemBloomFilter);
  writer.PutU64(num_words_ * word_bits_);
  writer.PutU32(num_hashes_);
  writer.PutU32(word_bits_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  for (uint64_t word : words_) writer.PutU64(word);
  return writer.Take();
}

Status OneMemBloomFilter::FromBytes(std::string_view bytes,
                                    std::optional<OneMemBloomFilter>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kOneMemBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t word_bits = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&word_bits) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed)) {
    return Status::InvalidArgument("1MemBF: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("1MemBF: unknown hash id");
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .word_bits = word_bits,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  for (uint64_t& word : (*out)->words_) {
    if (!reader.GetU64(&word)) {
      out->reset();
      return Status::InvalidArgument("1MemBF: truncated word payload");
    }
  }
  if (!reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("1MemBF: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
