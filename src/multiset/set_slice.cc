#include "multiset/set_slice.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "engine/batch_query_engine.h"
#include "shbf/windowed_filter.h"

namespace shbf {
namespace {

/// Most probe positions a key can have: the probe's k.
constexpr size_t kMaxPositions = WindowedFilter::kMaxBatchHashes;

/// In-place transpose of a 64 x 64 bit matrix, bit j of m[i] being element
/// (i, j): afterwards bit j of m[i] holds what bit i of m[j] held. Six
/// rounds of block swaps, halving the block each round (Hacker's Delight
/// §7-3).
void Transpose64(uint64_t m[64]) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k | j] ^= t;
      m[k] ^= t << j;
    }
  }
}

uint64_t LoadWord(const uint8_t* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

/// A windowed filter probes h_i(e) + b for each base h_i(e) and each bit b
/// of the need mask: the base itself and its t offsets.
void ProbePositions(const WindowedFilter& impl, std::string_view key,
                    size_t* positions) {
  WindowedFilter::Probe probe;
  impl.PrepareProbe(key, &probe);
  for (uint32_t i = 0; i < impl.num_groups(); ++i) {
    for (uint64_t rest = probe.need; rest != 0; rest &= rest - 1) {
      *positions++ = probe.bases[i] + __builtin_ctzll(rest);
    }
  }
}

}  // namespace

/// A catalog set whose bits live in slot `slot_` of a slice.
class SetSlice::View final : public MembershipFilter {
 public:
  View(std::shared_ptr<SetSlice> slice, size_t slot, size_t num_elements)
      : slice_(std::move(slice)), slot_(slot), adds_(num_elements) {}

  std::string_view name() const override { return slice_->name_; }
  size_t num_elements() const override { return adds_; }
  size_t memory_bytes() const override { return 0; }
  void Clear() override {
    slice_->ClearSlot(slot_);
    adds_ = 0;
  }
  std::string ToBytes() const override {
    return slice_->SlotToBytes(slot_, adds_);
  }
  void Add(std::string_view key) override {
    slice_->SetKey(slot_, key);
    ++adds_;
  }
  bool Contains(std::string_view key) const override {
    return slice_->TestKey(slot_, key);
  }

 private:
  std::shared_ptr<SetSlice> slice_;
  size_t slot_;
  size_t adds_;
};

bool SetSlice::Sliceable(const MembershipFilter& filter) {
  return FastPathTo<WindowedFilter>(filter) != nullptr;
}

SetSlice::SetSlice(const FilterRegistry::Entry& entry,
                   const storage::ImageGeometry& geometry, size_t num_slots)
    : name_(entry.name),
      opener_(entry.mapped_opener),
      geometry_(geometry),
      positions_(static_cast<size_t>(geometry.array_total_bits)),
      column_bytes_((num_slots + 7) / 8),
      columns_(positions_ * column_bytes_ + sizeof(uint64_t), 0),
      live_((num_slots + 63) / 64, 0),
      template_row_(static_cast<size_t>(geometry.num_bits),
                    positions_ - static_cast<size_t>(geometry.num_bits)) {
  geometry_.num_elements = 0;
  for (size_t slot = 0; slot < num_slots; ++slot) {
    live_[slot / 64] |= uint64_t{1} << (slot % 64);
  }
}

Status SetSlice::Build(const FilterRegistry::Entry& entry,
                       const storage::ImageGeometry& geometry,
                       const std::vector<Member>& members,
                       std::shared_ptr<SetSlice>* slice,
                       std::vector<std::unique_ptr<MembershipFilter>>* views) {
  if (entry.mapped_opener == nullptr || members.empty() ||
      geometry.num_bits == 0 ||
      geometry.array_total_bits < geometry.num_bits) {
    return Status::FailedPrecondition("SetSlice: cannot slice '" +
                                      entry.name + "' sets");
  }
  auto built = std::shared_ptr<SetSlice>(
      new SetSlice(entry, geometry, members.size()));
  storage::ImageHeader header;
  header.geometry = built->geometry_;
  Status s = entry.mapped_opener(
      header,
      {{built->template_row_.data(), built->template_row_.PayloadBytes()}},
      &built->template_);
  if (!s.ok()) return s;
  built->probe_ = FastPathTo<WindowedFilter>(*built->template_);
  if (built->probe_ == nullptr) {
    return Status::FailedPrecondition("SetSlice: '" + entry.name +
                                      "' has no windowed probe of k <= 64");
  }
  built->slot_ids_.reserve(members.size());
  for (const Member& member : members) {
    built->slot_ids_.push_back(member.set_id);
  }
  built->Transpose(members);
  views->clear();
  for (size_t slot = 0; slot < members.size(); ++slot) {
    views->push_back(
        std::make_unique<View>(built, slot, members[slot].num_elements));
  }
  *slice = std::move(built);
  return Status::Ok();
}

void SetSlice::Transpose(const std::vector<Member>& members) {
  const size_t row_bytes = (positions_ + 7) / 8;
  uint64_t block[64];
  for (size_t p0 = 0; p0 < positions_; p0 += 64) {
    const size_t in_bytes = std::min<size_t>(8, row_bytes - p0 / 8);
    const size_t count = std::min<size_t>(64, positions_ - p0);
    for (size_t s0 = 0; s0 < members.size(); s0 += 64) {
      // Row words in, one per slot; out come column words, one per
      // position, whose bit i is slot s0 + i.
      const size_t slots = std::min<size_t>(64, members.size() - s0);
      for (size_t i = 0; i < slots; ++i) {
        const uint8_t* in = members[s0 + i].row + p0 / 8;
        if (in_bytes == sizeof(uint64_t)) {
          block[i] = LoadWord(in);
        } else {
          block[i] = 0;
          std::memcpy(&block[i], in, in_bytes);
        }
      }
      std::fill(block + slots, block + 64, 0);
      Transpose64(block);
      // OR each word in whole: its bits past the last slot are zero, so a
      // short column's neighbour (or the guard) is left as it was.
      uint8_t* out = columns_.data() + p0 * column_bytes_ + s0 / 8;
      for (size_t j = 0; j < count; ++j, out += column_bytes_) {
        const uint64_t word = LoadWord(out) | block[j];
        std::memcpy(out, &word, sizeof(word));
      }
    }
  }
}

void SetSlice::WhichSets(std::span<const std::string_view> keys,
                         size_t group_size, SetIdRows* answers) const {
  if (keys.empty()) return;
  group_size = std::max<size_t>(group_size, 1);
  const size_t k = probe_->num_hashes();
  const size_t words = live_.size();
  size_t positions[kMaxPositions];
  std::vector<const uint8_t*> columns(std::min(group_size, keys.size()) * k);
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      ProbePositions(*probe_, keys[start + g], positions);
      const uint8_t** key_columns = &columns[g * k];
      for (size_t j = 0; j < k; ++j) {
        key_columns[j] = columns_.data() + positions[j] * column_bytes_;
        __builtin_prefetch(key_columns[j]);
        __builtin_prefetch(key_columns[j] + column_bytes_ - 1);
      }
    }
    for (size_t g = 0; g < group; ++g) {
      const uint8_t* const* key_columns = &columns[g * k];
      for (size_t w = 0; w < words; ++w) {
        uint64_t hits = live_[w];
        for (size_t j = 0; j < k; ++j) {
          hits &= LoadWord(key_columns[j] + 8 * w);
        }
        for (; hits != 0; hits &= hits - 1) {
          answers->Set(start + g, slot_ids_[64 * w + __builtin_ctzll(hits)]);
        }
      }
    }
  }
}

size_t SetSlice::live_slots() const {
  size_t live = 0;
  for (uint64_t word : live_) live += __builtin_popcountll(word);
  return live;
}

void SetSlice::Drop(size_t slot) {
  live_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
}

size_t SetSlice::memory_bytes() const {
  return columns_.size() + live_.size() * sizeof(uint64_t) +
         slot_ids_.size() * sizeof(uint32_t) +
         template_row_.allocated_bytes();
}

void SetSlice::SetKey(size_t slot, std::string_view key) {
  size_t positions[kMaxPositions];
  ProbePositions(*probe_, key, positions);
  const uint8_t bit = static_cast<uint8_t>(1u << (slot % 8));
  for (size_t j = 0; j < probe_->num_hashes(); ++j) {
    columns_[positions[j] * column_bytes_ + slot / 8] |= bit;
  }
}

bool SetSlice::TestKey(size_t slot, std::string_view key) const {
  size_t positions[kMaxPositions];
  ProbePositions(*probe_, key, positions);
  const uint8_t bit = static_cast<uint8_t>(1u << (slot % 8));
  for (size_t j = 0; j < probe_->num_hashes(); ++j) {
    if ((columns_[positions[j] * column_bytes_ + slot / 8] & bit) == 0) {
      return false;
    }
  }
  return true;
}

void SetSlice::ClearSlot(size_t slot) {
  const uint8_t keep = static_cast<uint8_t>(~(1u << (slot % 8)));
  for (size_t p = 0; p < positions_; ++p) {
    columns_[p * column_bytes_ + slot / 8] &= keep;
  }
}

std::string SetSlice::SlotToBytes(size_t slot, size_t num_elements) const {
  BitArray row(static_cast<size_t>(geometry_.num_bits),
               positions_ - static_cast<size_t>(geometry_.num_bits));
  const uint8_t bit = static_cast<uint8_t>(1u << (slot % 8));
  for (size_t p = 0; p < positions_; ++p) {
    if ((columns_[p * column_bytes_ + slot / 8] & bit) != 0) row.SetBit(p);
  }
  storage::ImageHeader header;
  header.geometry = geometry_;
  header.geometry.num_elements = num_elements;
  std::unique_ptr<MembershipFilter> filter;
  // The template opened this geometry at Build, so this open cannot fail.
  CheckOk(opener_(header, {{row.data(), row.PayloadBytes()}}, &filter));
  return filter->ToBytes();
}

}  // namespace shbf
