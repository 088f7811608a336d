// SetIdBitmap — the answer type of the multi-set index: one bit per
// catalog set id, set iff that set (possibly) contains the queried key.
//
// Catalog ids are stable and monotonically increasing (never reused after a
// drop), so the bitmap is indexed directly by id and sized to the largest id
// the index knows about. Kept header-only: the query hot loop sets and tests
// bits, and the bench compares whole bitmaps for bit-identical answers.

#ifndef SHBF_MULTISET_SET_ID_BITMAP_H_
#define SHBF_MULTISET_SET_ID_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shbf {

class SetIdBitmap {
 public:
  SetIdBitmap() = default;

  /// A bitmap able to hold ids in [0, universe).
  explicit SetIdBitmap(size_t universe)
      : universe_(universe), words_((universe + 63) / 64, 0) {}

  /// Largest id + 1 this bitmap can represent.
  size_t universe() const { return universe_; }

  void Set(uint32_t id) { words_[id >> 6] |= uint64_t{1} << (id & 63); }

  bool Test(uint32_t id) const {
    return id < universe_ &&
           ((words_[id >> 6] >> (id & 63)) & 1u) != 0;
  }

  void ClearAll() { words_.assign(words_.size(), 0); }

  /// Number of set bits.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t word : words_) total += __builtin_popcountll(word);
    return total;
  }

  /// Calls `fn(id)` for every set id present, ascending, straight off the
  /// bitmap words.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
        fn(static_cast<uint32_t>(w * 64 + __builtin_ctzll(word)));
      }
    }
  }

  /// The set ids present, ascending.
  std::vector<uint32_t> ToIds() const {
    std::vector<uint32_t> ids;
    ForEachId([&](uint32_t id) { ids.push_back(id); });
    return ids;
  }

  friend bool operator==(const SetIdBitmap& a, const SetIdBitmap& b) {
    return a.universe_ == b.universe_ && a.words_ == b.words_;
  }
  friend bool operator!=(const SetIdBitmap& a, const SetIdBitmap& b) {
    return !(a == b);
  }

 private:
  size_t universe_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace shbf

#endif  // SHBF_MULTISET_SET_ID_BITMAP_H_
