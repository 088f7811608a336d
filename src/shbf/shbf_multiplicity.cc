#include "shbf/shbf_multiplicity.h"

#include <algorithm>
#include <bit>

namespace shbf {

Status ShbfXParams::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("ShbfX: num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("ShbfX: num_hashes must be positive");
  }
  if (max_count == 0 || max_count > kMaxSupportedCount) {
    return Status::InvalidArgument(
        "ShbfX: max_count must be in [1, 512]");
  }
  return Status::Ok();
}

ShbfX::ShbfX(const ShbfXParams& params)
    : family_(params.hash_algorithm, params.num_hashes, params.seed),
      num_hashes_(params.num_hashes),
      max_count_(params.max_count),
      // Writes shift by up to c − 1; reads window up to c + 56 bits past m.
      bits_(params.num_bits,
            /*slack_bits=*/params.max_count + BitArray::kWindowBits) {
  CheckOk(params.Validate());
}

void ShbfX::Build(const std::vector<std::string>& multiset) {
  ChainedHashTable counts;
  for (const std::string& key : multiset) counts.AddTo(key, 1);
  counts.ForEach([&](std::string_view key, uint64_t count) {
    SHBF_CHECK(count <= max_count_)
        << "multiplicity " << count << " exceeds max_count " << max_count_;
    InsertWithCount(key, static_cast<uint32_t>(count));
  });
}

void ShbfX::InsertWithCount(std::string_view key, uint32_t count) {
  SHBF_CHECK(count >= 1 && count <= max_count_)
      << "count " << count << " outside [1, " << max_count_ << "]";
  const size_t m = bits_.num_bits();
  const uint32_t offset = count - 1;  // o(e) = c(e) − 1 (§5.1)
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    bits_.SetBit(h(i) % m + offset);
  }
  ++num_distinct_;
}

uint32_t ShbfX::GatherWindows(size_t base, uint64_t* mask) const {
  uint32_t loads = 0;
  for (uint32_t start = 0; start < max_count_;
       start += BitArray::kWindowBits) {
    uint64_t window = bits_.LoadWindow(base + start);
    ++loads;
    // This load covers candidate offsets [start, start + valid); AND those
    // positions of the mask with the window, leaving all others untouched.
    uint32_t valid =
        std::min<uint32_t>(BitArray::kWindowBits, max_count_ - start);
    uint64_t window_valid = window & ((1ull << valid) - 1);  // valid <= 57
    uint32_t word = start / 64;
    uint32_t shift = start % 64;
    uint64_t covered_low = (shift + valid >= 64)
                               ? (~0ull << shift)
                               : (((1ull << valid) - 1) << shift);
    mask[word] &= (window_valid << shift) | ~covered_low;
    if (shift + valid > 64) {
      uint32_t spill = shift + valid - 64;  // positions in the next word
      uint64_t covered_high = (1ull << spill) - 1;
      mask[word + 1] &= (window_valid >> (64 - shift)) | ~covered_high;
    }
  }
  return loads;
}

std::vector<uint32_t> ShbfX::QueryCandidates(std::string_view key) const {
  const size_t m = bits_.num_bits();
  const uint32_t words = CeilDiv(max_count_, 64);
  uint64_t mask[kMaskWords];
  for (uint32_t w = 0; w < words; ++w) mask[w] = ~0ull;
  // Trim the final word to exactly max_count_ valid positions.
  if (max_count_ % 64 != 0) mask[words - 1] = (1ull << (max_count_ % 64)) - 1;

  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    GatherWindows(h(i) % m, mask);
    bool any = false;
    for (uint32_t w = 0; w < words; ++w) any = any || (mask[w] != 0);
    if (!any) return {};
  }

  std::vector<uint32_t> candidates;
  for (uint32_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      candidates.push_back(w * 64 + std::countr_zero(bits) + 1);
      bits &= bits - 1;
    }
  }
  return candidates;
}

namespace {

// Population count across `words` mask words.
inline uint32_t MaskPopcount(const uint64_t* mask, uint32_t words) {
  uint32_t total = 0;
  for (uint32_t w = 0; w < words; ++w) {
    total += static_cast<uint32_t>(std::popcount(mask[w]));
  }
  return total;
}

inline uint32_t MaskLowest(const uint64_t* mask, uint32_t words) {
  for (uint32_t w = 0; w < words; ++w) {
    if (mask[w] != 0) return w * 64 + std::countr_zero(mask[w]) + 1;
  }
  return 0;
}

inline uint32_t MaskHighest(const uint64_t* mask, uint32_t words) {
  for (uint32_t w = words; w-- > 0;) {
    if (mask[w] != 0) return w * 64 + 63 - std::countl_zero(mask[w]) + 1;
  }
  return 0;
}

}  // namespace

uint32_t ShbfX::QueryCount(std::string_view key,
                           MultiplicityReportPolicy policy) const {
  QueryStats ignored;
  return QueryCountWithStats(key, policy, &ignored);
}

template <typename BaseFn>
uint32_t ShbfX::QueryCountImpl(BaseFn&& base_of,
                               MultiplicityReportPolicy policy,
                               QueryStats* stats) const {
  const uint32_t words = CeilDiv(max_count_, 64);
  uint64_t mask[kMaskWords];
  for (uint32_t w = 0; w < words; ++w) mask[w] = ~0ull;
  if (max_count_ % 64 != 0) mask[words - 1] = (1ull << (max_count_ % 64)) - 1;

  ++stats->queries;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    size_t base = base_of(i);
    stats->memory_accesses += GatherWindows(base, mask);
    uint32_t alive = MaskPopcount(mask, words);
    if (alive == 0) return 0;
    // One candidate left: for stored keys the true count always survives
    // every intersection, so the singleton is the answer once it passes the
    // remaining hashes. Verifying it with single-bit probes (one access per
    // remaining hash, instead of a ⌈c/w̄⌉-load gather) is what keeps the
    // per-query access count nearly flat in k (Fig 11(b)). The probes are
    // mandatory: returning the singleton unverified would accept any
    // non-member whose intersection ever narrows to one candidate, which
    // multiplies the FPR by orders of magnitude.
    if (alive == 1) {
      uint32_t candidate = MaskLowest(mask, words);
      for (uint32_t j = i + 1; j < num_hashes_; ++j) {
        ++stats->memory_accesses;
        size_t probe = base_of(j);
        if (!bits_.GetBit(probe + candidate - 1)) return 0;
      }
      return candidate;
    }
  }
  return policy == MultiplicityReportPolicy::kLargest
             ? MaskHighest(mask, words)
             : MaskLowest(mask, words);
}

uint32_t ShbfX::QueryCountWithStats(std::string_view key,
                                    MultiplicityReportPolicy policy,
                                    QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  const auto h = family_.Bind(key);
  return QueryCountImpl(
      [&](uint32_t i) {
        ++stats->hash_computations;
        return h(i) % m;
      },
      policy, stats);
}

void ShbfX::PrepareProbe(std::string_view key, Probe* probe) const {
  const size_t m = bits_.num_bits();
  SHBF_CHECK(num_hashes_ <= kMaxBatchHashes) << "probe path supports k <= 64";
  const auto h = family_.Bind(key);
  for (uint32_t i = 0; i < num_hashes_; ++i) probe->bases[i] = h(i) % m;
}

void ShbfX::PrefetchProbe(const Probe& probe) const {
  // A gather loads ⌈c/w̄⌉ windows starting at the base; the last one reads
  // up to 63 bits past offset c − 1. One prefetch per cache line touched.
  const uint32_t span_bits = max_count_ + 63;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    for (uint32_t off = 0; off < span_bits; off += 512) {
      bits_.Prefetch(probe.bases[i] + off);
    }
  }
}

uint32_t ShbfX::ResolveProbe(const Probe& probe,
                             MultiplicityReportPolicy policy) const {
  QueryStats ignored;
  return QueryCountImpl([&](uint32_t i) { return probe.bases[i]; }, policy,
                        &ignored);
}

void ShbfX::Clear() {
  bits_.Clear();
  num_distinct_ = 0;
}

std::string ShbfX::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kShbfX);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(max_count_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(num_distinct_);
  bits_.AppendPayload(&writer);
  return writer.Take();
}

Status ShbfX::FromBytes(std::string_view bytes, std::optional<ShbfX>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kShbfX);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t max_count = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_distinct = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&max_count) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed) || !reader.GetU64(&num_distinct)) {
    return Status::InvalidArgument("ShbfX: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("ShbfX: unknown hash id");
  ShbfXParams params{.num_bits = num_bits,
                     .num_hashes = num_hashes,
                     .max_count = max_count,
                     .hash_algorithm = static_cast<HashAlgorithm>(alg),
                     .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  (*out)->num_distinct_ = num_distinct;
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("ShbfX: payload size mismatch");
  }
  return Status::Ok();
}

// --- CountingShbfX -----------------------------------------------------------

Status CountingShbfX::Params::Validate() const {
  Status s = filter.Validate();
  if (!s.ok()) return s;
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument(
        "CountingShbfX: counter_bits must be in [1, 32]");
  }
  return Status::Ok();
}

CountingShbfX::CountingShbfX(const Params& params)
    : filter_(params.filter),
      counters_(params.filter.num_bits + params.filter.max_count +
                    BitArray::kWindowBits,
                params.counter_bits),
      mode_(params.mode) {
  CheckOk(params.Validate());
}

uint32_t CountingShbfX::CurrentCount(std::string_view key) const {
  if (mode_ == UpdateMode::kTableBacked) {
    const uint64_t* count = exact_counts_.Find(key);
    return count == nullptr ? 0 : static_cast<uint32_t>(*count);
  }
  // §5.3.1: ask the filter itself; the answer can be a false positive, which
  // is exactly how this mode leaks false negatives.
  return filter_.QueryCount(key, MultiplicityReportPolicy::kLargest);
}

void CountingShbfX::AddCells(const HashFamily::BoundKey& h,
                             uint32_t count_offset) {
  const size_t m = filter_.bits_.num_bits();
  for (uint32_t i = 0; i < filter_.num_hashes_; ++i) {
    size_t pos = h(i) % m + count_offset;
    counters_.Increment(pos);
    filter_.bits_.SetBit(pos);
  }
}

void CountingShbfX::RemoveCells(const HashFamily::BoundKey& h,
                                uint32_t count_offset) {
  const size_t m = filter_.bits_.num_bits();
  const bool clamp = mode_ == UpdateMode::kFilterQueried;
  for (uint32_t i = 0; i < filter_.num_hashes_; ++i) {
    size_t pos = h(i) % m + count_offset;
    if (clamp && counters_.Get(pos) == 0) continue;  // FP-driven over-removal
    counters_.Decrement(pos);
    if (counters_.Get(pos) == 0) filter_.bits_.ClearBit(pos);
  }
}

void CountingShbfX::Insert(std::string_view key) {
  uint32_t z = CurrentCount(key);
  if (mode_ == UpdateMode::kFilterQueried) {
    // The believed count comes from the filter and may be FP-inflated all
    // the way to the ceiling (§5.3.1); clamp rather than abort — this mode
    // trades exactness away by design.
    z = std::min(z, filter_.max_count_ - 1);
  } else {
    SHBF_CHECK(z < filter_.max_count_)
        << "multiplicity would exceed max_count " << filter_.max_count_;
  }
  // §5.3: "delete the z-th multiplicity and insert the (z+1)-th".
  const auto h = filter_.family_.Bind(key);
  if (z > 0) RemoveCells(h, z - 1);
  AddCells(h, z);
  if (mode_ == UpdateMode::kTableBacked) exact_counts_.AddTo(key, 1);
  if (z == 0) ++filter_.num_distinct_;
}

bool CountingShbfX::Delete(std::string_view key) {
  uint32_t z = CurrentCount(key);
  if (z == 0) return false;
  const auto h = filter_.family_.Bind(key);
  RemoveCells(h, z - 1);
  if (z >= 2) AddCells(h, z - 2);
  if (mode_ == UpdateMode::kTableBacked) {
    uint64_t* count = exact_counts_.Find(key);
    SHBF_CHECK(count != nullptr);
    if (--*count == 0) exact_counts_.Erase(key);
  }
  if (z == 1) --filter_.num_distinct_;
  return true;
}

uint64_t CountingShbfX::ExactCount(std::string_view key) const {
  SHBF_CHECK(mode_ == UpdateMode::kTableBacked)
      << "exact counts only exist in kTableBacked mode";
  const uint64_t* count = exact_counts_.Find(key);
  return count == nullptr ? 0 : *count;
}

bool CountingShbfX::SynchronizedWithCounters() const {
  for (size_t i = 0; i < counters_.num_counters(); ++i) {
    if ((counters_.Get(i) > 0) != filter_.bits_.GetBit(i)) return false;
  }
  return true;
}

}  // namespace shbf
