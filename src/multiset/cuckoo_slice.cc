#include "multiset/cuckoo_slice.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace shbf {
namespace {

// A lane bucket's slots are bits [0, b·f) of an 8-byte load from its first
// byte only on a little-endian host (PackedCounterArray packs counter j at
// bit j·f of its word stream).
static_assert(std::endian::native == std::endian::little);

/// The widest bucket one 8-byte load holds with a byte to spare.
constexpr size_t kMaxBucketBytes = 7;

uint64_t LoadWord(const uint8_t* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

}  // namespace

CuckooSlice::Geometry CuckooSlice::Geometry::Of(const CuckooFilter& filter) {
  return {filter.hash_algorithm(), filter.seed(), filter.num_buckets(),
          filter.fingerprint_bits(), filter.bucket_size()};
}

bool CuckooSlice::Sliceable(const CuckooFilter& filter) {
  const size_t bucket_bits =
      size_t{filter.bucket_size()} * filter.fingerprint_bits();
  return filter.lanes() == 1 && bucket_bits % 8 == 0 &&
         bucket_bits / 8 <= kMaxBucketBytes;
}

CuckooSlice::CuckooSlice(const CuckooFilter& first, size_t lanes)
    : table_(std::make_shared<PackedCounterArray>(
          first.num_buckets() * lanes * first.bucket_size(),
          first.fingerprint_bits())),
      template_(first.params(), table_, static_cast<uint32_t>(lanes), 0),
      bucket_bytes_(size_t{first.bucket_size()} * first.fingerprint_bits() /
                    8),
      row_bytes_(lanes * bucket_bytes_),
      live_((lanes + 63) / 64, 0) {
  for (uint32_t slot = 0; slot < first.bucket_size(); ++slot) {
    lane_ones_ |= uint64_t{1} << (slot * first.fingerprint_bits());
  }
  highs_ = lane_ones_ << (first.fingerprint_bits() - 1);
}

Status CuckooSlice::Build(const std::vector<Member>& members,
                          std::unique_ptr<CuckooSlice>* slice) {
  if (members.size() < 2) {
    return Status::FailedPrecondition(
        "CuckooSlice: a slice needs two or more sets");
  }
  const CuckooFilter& first = members.front().adapter->impl();
  for (const Member& member : members) {
    const CuckooFilter& filter = member.adapter->impl();
    if (!Sliceable(filter) || Geometry::Of(filter) != Geometry::Of(first)) {
      return Status::FailedPrecondition(
          "CuckooSlice: the sets are not standalone filters of one "
          "sliceable geometry");
    }
  }
  const auto lanes = static_cast<uint32_t>(members.size());
  auto built = std::unique_ptr<CuckooSlice>(new CuckooSlice(first, lanes));
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    members[lane].adapter->mutable_impl()->MoveToLane(built->table_, lanes,
                                                      lane);
    built->live_[lane / 64] |= uint64_t{1} << (lane % 64);
    built->lane_ids_.push_back(members[lane].set_id);
    built->adapters_.push_back(members[lane].adapter);
  }
  built->PrepareForConstReads();
  *slice = std::move(built);
  return Status::Ok();
}

void CuckooSlice::PrefetchRow(const uint8_t* row) const {
  for (size_t offset = 0; offset < row_bytes_; offset += 64) {
    __builtin_prefetch(row + offset);
  }
  __builtin_prefetch(row + row_bytes_ - 1);
}

uint64_t CuckooSlice::Hits(const uint8_t* row1, const uint8_t* row2,
                           size_t first, size_t count,
                           uint64_t pattern) const {
  // SWAR "some slot equals the fingerprint" on x = bucket ^ pattern, as in
  // PackedCounterArray::AnyEqual: a slot borrows out of x − ones only if
  // it is zero, so the lowest zero slot's high bit survives
  // (x − ones) & ~x. The load's bytes past the bucket sit above its slots
  // and are masked off with them. The table's straddle word keeps the last
  // lane's load in bounds.
  uint64_t hits = 0;
  const uint8_t* bucket1 = row1 + first * bucket_bytes_;
  const uint8_t* bucket2 = row2 + first * bucket_bytes_;
  for (size_t j = 0; j < count;
       ++j, bucket1 += bucket_bytes_, bucket2 += bucket_bytes_) {
    const uint64_t x1 = LoadWord(bucket1) ^ pattern;
    const uint64_t x2 = LoadWord(bucket2) ^ pattern;
    const uint64_t zero =
        (((x1 - lane_ones_) & ~x1) | ((x2 - lane_ones_) & ~x2)) & highs_;
    hits |= uint64_t{zero != 0} << j;
  }
  return hits;
}

void CuckooSlice::WhichSets(std::span<const std::string_view> keys,
                            size_t group_size, SetIdRows* answers) const {
  if (keys.empty()) return;
  group_size = std::max<size_t>(group_size, 1);
  const auto* rows = reinterpret_cast<const uint8_t*>(table_->words());
  const size_t lanes = num_lanes();
  std::vector<CuckooFilter::Probe> probes(std::min(group_size, keys.size()));
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      template_.PrepareProbe(keys[start + g], &probes[g]);
      PrefetchRow(rows + probes[g].i1 * row_bytes_);
      PrefetchRow(rows + probes[g].i2 * row_bytes_);
    }
    for (size_t g = 0; g < group; ++g) {
      const CuckooFilter::Probe& probe = probes[g];
      const uint8_t* row1 = rows + probe.i1 * row_bytes_;
      const uint8_t* row2 = rows + probe.i2 * row_bytes_;
      const uint64_t pattern = probe.fingerprint * lane_ones_;
      for (size_t w = 0; w < live_.size(); ++w) {
        uint64_t hits =
            Hits(row1, row2, 64 * w, std::min<size_t>(64, lanes - 64 * w),
                 pattern) &
            live_[w];
        for (; hits != 0; hits &= hits - 1) {
          answers->Set(start + g, lane_ids_[64 * w + __builtin_ctzll(hits)]);
        }
      }
    }
  }
  for (uint32_t lane : exceptions_) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (adapters_[lane]->Contains(keys[i])) {
        answers->Set(i, lane_ids_[lane]);
      }
    }
  }
}

size_t CuckooSlice::live_lanes() const {
  size_t live = 0;
  for (uint64_t word : live_) live += __builtin_popcountll(word);
  return live;
}

void CuckooSlice::Drop(size_t lane) {
  live_[lane / 64] &= ~(uint64_t{1} << (lane % 64));
  adapters_[lane] = nullptr;
  std::erase(exceptions_, static_cast<uint32_t>(lane));
}

void CuckooSlice::PrepareForConstReads() {
  exceptions_.clear();
  for (uint32_t lane = 0; lane < adapters_.size(); ++lane) {
    if (adapters_[lane] != nullptr && adapters_[lane]->AnswersBeyondBuckets()) {
      exceptions_.push_back(lane);
    }
  }
}

size_t CuckooSlice::memory_bytes() const {
  return table_->allocated_bytes() + live_.size() * sizeof(uint64_t) +
         lane_ids_.size() * sizeof(uint32_t);
}

}  // namespace shbf
