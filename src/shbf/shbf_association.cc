#include "shbf/shbf_association.h"

#include <cmath>

namespace shbf {

Status ShbfAParams::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("ShbfA: num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("ShbfA: num_hashes must be positive");
  }
  if (max_offset_span < 3 || max_offset_span > BitArray::kWindowBits) {
    return Status::InvalidArgument("ShbfA: max_offset_span must be in [3, 57]");
  }
  if ((max_offset_span - 1) % 2 != 0) {
    return Status::InvalidArgument(
        "ShbfA: max_offset_span must be odd so (w̄−1)/2 is exact");
  }
  return Status::Ok();
}

ShbfAParams ShbfAParams::Optimal(size_t n1, size_t n2, size_t n_intersection,
                                 uint32_t num_hashes) {
  SHBF_CHECK(n1 > 0 && n2 > 0 && num_hashes > 0);
  SHBF_CHECK(n_intersection <= n1 && n_intersection <= n2);
  ShbfAParams p;
  // m = n'·k / ln 2 with n' = |S1 ∪ S2| = n1 + n2 − n3 (Table 2).
  double n_union = static_cast<double>(n1 + n2 - n_intersection);
  p.num_bits = static_cast<size_t>(std::ceil(n_union * num_hashes / std::log(2.0)));
  p.num_hashes = num_hashes;
  return p;
}

ShbfA::ShbfA(const ShbfAParams& params)
    : family_(params.hash_algorithm, params.num_hashes + 2, params.seed),
      num_hashes_(params.num_hashes),
      max_offset_span_(params.max_offset_span),
      half_span_((params.max_offset_span - 1) / 2),
      // o2 can reach w̄ − 1, so shifted writes may land that far past m − 1
      // (the paper appends w̄ − 2 bits; we keep a full span for the window).
      bits_(params.num_bits, /*slack_bits=*/params.max_offset_span) {
  CheckOk(params.Validate());
}

ShbfA::Offsets ShbfA::OffsetsOf(std::string_view key) const {
  return OffsetsFrom(family_.Bind(key));
}

ShbfA::Offsets ShbfA::OffsetsFrom(const HashFamily::BoundKey& h) const {
  uint64_t o1 = h(num_hashes_) % half_span_ + 1;
  uint64_t o2 = o1 + h(num_hashes_ + 1) % half_span_ + 1;
  return {o1, o2};
}

void ShbfA::AddWithOffset(const HashFamily::BoundKey& h, uint64_t offset) {
  const size_t m = bits_.num_bits();
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    bits_.SetBit(h(i) % m + offset);
  }
}

void ShbfA::Build(const std::vector<std::string>& s1,
                  const std::vector<std::string>& s2) {
  // §4.1: hash tables T1/T2 classify every element into its case.
  ChainedHashTable t1;
  ChainedHashTable t2;
  for (const std::string& e : s1) t1.Insert(e, 0);
  for (const std::string& e : s2) t2.Insert(e, 0);

  // Elements of S1: offset 0 if exclusive, o1 if shared.
  t1.ForEach([&](std::string_view key, uint64_t) {
    const auto h = family_.Bind(key);
    AddWithOffset(h, t2.Contains(key) ? OffsetsFrom(h).o1 : 0);
  });
  // Elements of S2 \ S1: offset o2. Shared elements are already stored.
  t2.ForEach([&](std::string_view key, uint64_t) {
    if (t1.Contains(key)) return;
    const auto h = family_.Bind(key);
    AddWithOffset(h, OffsetsFrom(h).o2);
  });
}

AssociationOutcome ShbfA::Decode(bool s1_only, bool both, bool s2_only) {
  // The seven outcomes of §4.2, in the paper's numbering.
  if (s1_only && !both && !s2_only) return AssociationOutcome::kS1Only;
  if (!s1_only && both && !s2_only) return AssociationOutcome::kIntersection;
  if (!s1_only && !both && s2_only) return AssociationOutcome::kS2Only;
  if (s1_only && both && !s2_only) return AssociationOutcome::kS1UnsureS2;
  if (!s1_only && both && s2_only) return AssociationOutcome::kS2UnsureS1;
  if (s1_only && !both && s2_only) return AssociationOutcome::kExclusiveEither;
  if (s1_only && both && s2_only) return AssociationOutcome::kUnknown;
  return AssociationOutcome::kNotFound;
}

AssociationOutcome ShbfA::Query(std::string_view key) const {
  const size_t m = bits_.num_bits();
  const auto h = family_.Bind(key);
  Offsets off = OffsetsFrom(h);
  const uint64_t b0 = 1ull;
  const uint64_t b1 = 1ull << off.o1;
  const uint64_t b2 = 1ull << off.o2;
  bool s1_only = true;
  bool both = true;
  bool s2_only = true;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    uint64_t window = bits_.LoadWindow(h(i) % m);
    s1_only = s1_only && (window & b0);
    both = both && (window & b1);
    s2_only = s2_only && (window & b2);
    if (!s1_only && !both && !s2_only) break;  // every pattern already dead
  }
  return Decode(s1_only, both, s2_only);
}

void ShbfA::PrepareProbe(std::string_view key, Probe* probe) const {
  const size_t m = bits_.num_bits();
  SHBF_CHECK(num_hashes_ <= kMaxBatchHashes) << "probe path supports k <= 64";
  const auto h = family_.Bind(key);
  Offsets off = OffsetsFrom(h);
  probe->bit_s1 = 1ull;
  probe->bit_both = 1ull << off.o1;
  probe->bit_s2 = 1ull << off.o2;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    probe->bases[i] = h(i) % m;
  }
}

void ShbfA::PrefetchProbe(const Probe& probe) const {
  for (uint32_t i = 0; i < num_hashes_; ++i) bits_.Prefetch(probe.bases[i]);
}

AssociationOutcome ShbfA::ResolveProbe(const Probe& probe) const {
  bool s1_only = true;
  bool both = true;
  bool s2_only = true;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    uint64_t window = bits_.LoadWindow(probe.bases[i]);
    s1_only = s1_only && (window & probe.bit_s1);
    both = both && (window & probe.bit_both);
    s2_only = s2_only && (window & probe.bit_s2);
    if (!s1_only && !both && !s2_only) break;  // every pattern already dead
  }
  return Decode(s1_only, both, s2_only);
}

AssociationOutcome ShbfA::QueryWithStats(std::string_view key,
                                         QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  ++stats->queries;
  stats->hash_computations += 2;  // o1, o2
  const auto h = family_.Bind(key);
  Offsets off = OffsetsFrom(h);
  const uint64_t b0 = 1ull;
  const uint64_t b1 = 1ull << off.o1;
  const uint64_t b2 = 1ull << off.o2;
  bool s1_only = true;
  bool both = true;
  bool s2_only = true;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;  // all three bits share one window
    uint64_t window = bits_.LoadWindow(h(i) % m);
    s1_only = s1_only && (window & b0);
    both = both && (window & b1);
    s2_only = s2_only && (window & b2);
    if (!s1_only && !both && !s2_only) break;
  }
  return Decode(s1_only, both, s2_only);
}

std::string ShbfA::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kShbfA);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(max_offset_span_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  bits_.AppendPayload(&writer);
  return writer.Take();
}

Status ShbfA::FromBytes(std::string_view bytes, std::optional<ShbfA>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kShbfA);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t max_offset_span = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&max_offset_span) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed)) {
    return Status::InvalidArgument("ShbfA: truncated parameter block");
  }
  if (alg > 3) return Status::InvalidArgument("ShbfA: unknown hash id");
  ShbfAParams params{.num_bits = num_bits,
                     .num_hashes = num_hashes,
                     .max_offset_span = max_offset_span,
                     .hash_algorithm = static_cast<HashAlgorithm>(alg),
                     .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("ShbfA: payload size mismatch");
  }
  return Status::Ok();
}

// --- CountingShbfA -----------------------------------------------------------

Status CountingShbfA::Params::Validate() const {
  Status s = filter.Validate();
  if (!s.ok()) return s;
  if (counter_bits < 1 || counter_bits > 32) {
    return Status::InvalidArgument(
        "CountingShbfA: counter_bits must be in [1, 32]");
  }
  return Status::Ok();
}

CountingShbfA::CountingShbfA(const Params& params)
    : filter_(params.filter),
      counters_(params.filter.num_bits + params.filter.max_offset_span,
                params.counter_bits) {
  CheckOk(params.Validate());
}

void CountingShbfA::AddCells(const HashFamily::BoundKey& h, uint64_t offset) {
  const size_t m = filter_.bits_.num_bits();
  for (uint32_t i = 0; i < filter_.num_hashes_; ++i) {
    size_t pos = h(i) % m + offset;
    counters_.Increment(pos);
    filter_.bits_.SetBit(pos);
  }
}

void CountingShbfA::RemoveCells(const HashFamily::BoundKey& h,
                                uint64_t offset) {
  const size_t m = filter_.bits_.num_bits();
  for (uint32_t i = 0; i < filter_.num_hashes_; ++i) {
    size_t pos = h(i) % m + offset;
    counters_.Decrement(pos);
    if (counters_.Get(pos) == 0) filter_.bits_.ClearBit(pos);
  }
}

void CountingShbfA::InsertS1(std::string_view key) {
  if (t1_.Contains(key)) return;  // set semantics
  const auto h = filter_.family_.Bind(key);
  const ShbfA::Offsets off = filter_.OffsetsFrom(h);
  bool in_s2 = t2_.Contains(key);
  if (in_s2) {
    // S2-only → intersection: migrate o2 → o1.
    RemoveCells(h, off.o2);
    AddCells(h, off.o1);
  } else {
    AddCells(h, 0);
  }
  t1_.Insert(key, 0);
}

void CountingShbfA::InsertS2(std::string_view key) {
  if (t2_.Contains(key)) return;
  const auto h = filter_.family_.Bind(key);
  const ShbfA::Offsets off = filter_.OffsetsFrom(h);
  bool in_s1 = t1_.Contains(key);
  if (in_s1) {
    // S1-only → intersection: migrate 0 → o1.
    RemoveCells(h, 0);
    AddCells(h, off.o1);
  } else {
    AddCells(h, off.o2);
  }
  t2_.Insert(key, 0);
}

bool CountingShbfA::DeleteS1(std::string_view key) {
  if (!t1_.Contains(key)) return false;
  const auto h = filter_.family_.Bind(key);
  const ShbfA::Offsets off = filter_.OffsetsFrom(h);
  bool in_s2 = t2_.Contains(key);
  if (in_s2) {
    // intersection → S2-only: migrate o1 → o2.
    RemoveCells(h, off.o1);
    AddCells(h, off.o2);
  } else {
    RemoveCells(h, 0);
  }
  t1_.Erase(key);
  return true;
}

bool CountingShbfA::DeleteS2(std::string_view key) {
  if (!t2_.Contains(key)) return false;
  const auto h = filter_.family_.Bind(key);
  const ShbfA::Offsets off = filter_.OffsetsFrom(h);
  bool in_s1 = t1_.Contains(key);
  if (in_s1) {
    // intersection → S1-only: migrate o1 → 0.
    RemoveCells(h, off.o1);
    AddCells(h, 0);
  } else {
    RemoveCells(h, off.o2);
  }
  t2_.Erase(key);
  return true;
}

bool CountingShbfA::SynchronizedWithCounters() const {
  for (size_t i = 0; i < counters_.num_counters(); ++i) {
    if ((counters_.Get(i) > 0) != filter_.bits_.GetBit(i)) return false;
  }
  return true;
}

}  // namespace shbf
