#include "core/packed_counter_array.h"

#include <algorithm>

namespace shbf {

PackedCounterArray::PackedCounterArray(size_t num_counters,
                                       uint32_t bits_per_counter) {
  SHBF_CHECK(num_counters > 0) << "need at least one counter";
  SHBF_CHECK(bits_per_counter >= 1 && bits_per_counter <= 32)
      << "bits_per_counter must be in [1, 32], got " << bits_per_counter;
  SetGeometry(num_counters, bits_per_counter);
  storage_.assign(num_words_, 0);
  words_data_ = storage_.data();
}

PackedCounterArray PackedCounterArray::View(const uint64_t* words,
                                            size_t num_counters,
                                            uint32_t bits_per_counter,
                                            uint64_t saturation_events) {
  SHBF_CHECK(words != nullptr && num_counters > 0);
  SHBF_CHECK(bits_per_counter >= 1 && bits_per_counter <= 32);
  PackedCounterArray view;
  view.SetGeometry(num_counters, bits_per_counter);
  view.saturation_events_ = saturation_events;
  view.words_data_ = words;
  view.is_view_ = true;
  return view;
}

void PackedCounterArray::SetGeometry(size_t num_counters,
                                     uint32_t bits_per_counter) {
  num_counters_ = num_counters;
  bits_per_counter_ = bits_per_counter;
  max_value_ = (1ull << bits_per_counter) - 1;
  // One extra word so counters straddling the final word boundary can be
  // read/written with the two-word fast path.
  num_words_ =
      CeilDiv(num_counters * static_cast<size_t>(bits_per_counter), 64) + 1;
  lanes_per_chunk_ = 64 / bits_per_counter;
  lane_ones_ = 0;
  for (uint32_t lane = 0; lane < lanes_per_chunk_; ++lane) {
    lane_ones_ |= 1ull << (lane * bits_per_counter);
  }
}

// Both constructors go through the assignments, which re-anchor words_data_.
PackedCounterArray::PackedCounterArray(const PackedCounterArray& other) {
  *this = other;
}

PackedCounterArray::PackedCounterArray(PackedCounterArray&& other) noexcept {
  *this = std::move(other);
}

PackedCounterArray& PackedCounterArray::operator=(
    const PackedCounterArray& other) {
  if (this == &other) return *this;
  num_counters_ = other.num_counters_;
  bits_per_counter_ = other.bits_per_counter_;
  max_value_ = other.max_value_;
  lanes_per_chunk_ = other.lanes_per_chunk_;
  lane_ones_ = other.lane_ones_;
  saturation_events_ = other.saturation_events_;
  storage_.assign(other.words_data_, other.words_data_ + other.num_words_);
  num_words_ = other.num_words_;
  words_data_ = storage_.data();
  is_view_ = false;
  return *this;
}

PackedCounterArray& PackedCounterArray::operator=(
    PackedCounterArray&& other) noexcept {
  if (this == &other) return *this;
  num_counters_ = other.num_counters_;
  bits_per_counter_ = other.bits_per_counter_;
  max_value_ = other.max_value_;
  lanes_per_chunk_ = other.lanes_per_chunk_;
  lane_ones_ = other.lane_ones_;
  saturation_events_ = other.saturation_events_;
  // The vector's heap buffer is stable across moves (and a view's borrowed
  // pointer moves along unchanged).
  storage_ = std::move(other.storage_);
  words_data_ = other.words_data_;
  num_words_ = other.num_words_;
  is_view_ = other.is_view_;
  other.words_data_ = nullptr;
  other.is_view_ = false;
  return *this;
}

uint64_t PackedCounterArray::Get(size_t i) const {
  SHBF_DCHECK(i < num_counters_);
  size_t bit = i * bits_per_counter_;
  size_t word = bit >> 6;
  uint32_t shift = bit & 63;
  uint64_t value = words_data_[word] >> shift;
  if (shift + bits_per_counter_ > 64) {
    value |= words_data_[word + 1] << (64 - shift);
  }
  return value & max_value_;
}

void PackedCounterArray::Set(size_t i, uint64_t value) {
  SHBF_DCHECK(i < num_counters_);
  SHBF_DCHECK(value <= max_value_);
  uint64_t* words = mutable_words();
  size_t bit = i * bits_per_counter_;
  size_t word = bit >> 6;
  uint32_t shift = bit & 63;
  words[word] &= ~(max_value_ << shift);
  words[word] |= value << shift;
  if (shift + bits_per_counter_ > 64) {
    uint32_t spill = 64 - shift;
    words[word + 1] &= ~(max_value_ >> spill);
    words[word + 1] |= value >> spill;
  }
}

uint64_t PackedCounterArray::GetRun(size_t first, uint32_t count) const {
  const uint32_t width = count * bits_per_counter_;
  SHBF_DCHECK(first + count <= num_counters_ && width <= 64);
  const size_t bit = first * bits_per_counter_;
  const uint32_t shift = bit & 63;
  const uint64_t* w = words_data_ + (bit >> 6);
  // w[1] is in bounds for every counter (the straddle word), and the split
  // left shift stays defined at shift == 0.
  const uint64_t run = (w[0] >> shift) | ((w[1] << 1) << (63 - shift));
  return width == 64 ? run : run & ((uint64_t{1} << width) - 1);
}

void PackedCounterArray::SetRun(size_t first, uint32_t count, uint64_t run) {
  const uint32_t width = count * bits_per_counter_;
  SHBF_DCHECK(first + count <= num_counters_ && width <= 64);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  SHBF_DCHECK((run & ~mask) == 0);
  uint64_t* words = mutable_words();
  const size_t bit = first * bits_per_counter_;
  const size_t word = bit >> 6;
  const uint32_t shift = bit & 63;
  words[word] = (words[word] & ~(mask << shift)) | (run << shift);
  if (shift + width > 64) {
    const uint32_t spill = 64 - shift;
    words[word + 1] = (words[word + 1] & ~(mask >> spill)) | (run >> spill);
  }
}

bool PackedCounterArray::Increment(size_t i) {
  uint64_t v = Get(i);
  if (v >= max_value_) {
    ++saturation_events_;
    return false;
  }
  Set(i, v + 1);
  if (v + 1 == max_value_) {
    ++saturation_events_;
    return false;
  }
  return true;
}

void PackedCounterArray::Decrement(size_t i) {
  uint64_t v = Get(i);
  if (v == max_value_) return;  // stuck counter: deletes must not disturb it
  SHBF_CHECK(v > 0) << "counter underflow at index " << i;
  Set(i, v - 1);
}

void PackedCounterArray::Clear() {
  SHBF_CHECK(!is_view_) << "Clear on a mapped counter view";
  std::fill(storage_.begin(), storage_.end(), 0);
  saturation_events_ = 0;
}

void PackedCounterArray::AppendPayload(ByteWriter* writer) const {
  writer->PutU64(saturation_events_);
  for (size_t i = 0; i < num_words_; ++i) writer->PutU64(words_data_[i]);
}

bool PackedCounterArray::ReadPayload(ByteReader* reader) {
  SHBF_CHECK(!is_view_) << "ReadPayload into a mapped counter view";
  if (!reader->GetU64(&saturation_events_)) return false;
  for (uint64_t& word : storage_) {
    if (!reader->GetU64(&word)) return false;
  }
  return true;
}

size_t PackedCounterArray::CountZero() const {
  size_t zeros = 0;
  for (size_t i = 0; i < num_counters_; ++i) {
    if (Get(i) == 0) ++zeros;
  }
  return zeros;
}

}  // namespace shbf
