// The answer types of the multi-set index: one bit per catalog set id, set
// iff that set (possibly) contains the queried key.
//
//   * SetIdRows holds a whole batch's answers in one zero-filled block, a
//     row of ⌈id_bound/64⌉ words per key. It is the form the index writes
//     and the server encodes, so a batch costs one allocation, not one per
//     key.
//   * SetIdBitmap is one key's answer on its own, for callers that keep
//     answers apart (the one-key WhichSets, tests, the bench's reference):
//     a one-row SetIdRows.
//
// Catalog ids are stable and monotonically increasing (never reused after a
// drop), so both are indexed directly by id and sized to the largest id
// the index knows about. Kept header-only: the query hot loop sets and tests
// bits, and the bench compares whole bitmaps for bit-identical answers.

#ifndef SHBF_MULTISET_SET_ID_BITMAP_H_
#define SHBF_MULTISET_SET_ID_BITMAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace shbf {

class SetIdRows {
 public:
  /// Bytes one row takes for ids in [0, universe): what a batch's block
  /// costs per key.
  static size_t RowBytes(size_t universe) {
    return (universe + 63) / 64 * sizeof(uint64_t);
  }

  /// Makes this `rows` zero rows for ids in [0, universe), reusing the
  /// block's storage.
  void Reset(size_t rows, size_t universe) {
    rows_ = rows;
    universe_ = universe;
    row_words_ = (universe + 63) / 64;
    words_.assign(rows * row_words_, 0);
  }

  size_t rows() const { return rows_; }

  /// Largest id + 1 every row can represent.
  size_t universe() const { return universe_; }

  void Set(size_t row, uint32_t id) {
    words_[row * row_words_ + (id >> 6)] |= uint64_t{1} << (id & 63);
  }

  bool Test(size_t row, uint32_t id) const {
    return id < universe_ &&
           ((words_[row * row_words_ + (id >> 6)] >> (id & 63)) & 1u) != 0;
  }

  /// Number of set bits in `row`.
  size_t Count(size_t row) const {
    size_t total = 0;
    for (uint64_t word : RowWords(row)) total += __builtin_popcountll(word);
    return total;
  }

  /// Calls `fn(id)` for every set id present in `row`, ascending, straight
  /// off its words.
  template <typename Fn>
  void ForEachId(size_t row, Fn&& fn) const {
    const std::span<const uint64_t> words = RowWords(row);
    for (size_t w = 0; w < words.size(); ++w) {
      for (uint64_t word = words[w]; word != 0; word &= word - 1) {
        fn(static_cast<uint32_t>(w * 64 + __builtin_ctzll(word)));
      }
    }
  }

  /// The words of `row`.
  std::span<const uint64_t> RowWords(size_t row) const {
    return {words_.data() + row * row_words_, row_words_};
  }

 private:
  friend class SetIdBitmap;

  size_t rows_ = 0;
  size_t universe_ = 0;
  size_t row_words_ = 0;
  std::vector<uint64_t> words_;
};

class SetIdBitmap {
 public:
  SetIdBitmap() = default;

  /// A bitmap able to hold ids in [0, universe).
  explicit SetIdBitmap(size_t universe) { row_.Reset(1, universe); }

  /// Largest id + 1 this bitmap can represent.
  size_t universe() const { return row_.universe(); }

  void Set(uint32_t id) { row_.Set(0, id); }
  bool Test(uint32_t id) const { return row_.Test(0, id); }
  void ClearAll() { row_.Reset(1, row_.universe()); }

  /// Makes this a copy of row `row` of `rows`, reusing its storage.
  void AssignRow(const SetIdRows& rows, size_t row) {
    const std::span<const uint64_t> words = rows.RowWords(row);
    row_.rows_ = 1;
    row_.universe_ = rows.universe_;
    row_.row_words_ = rows.row_words_;
    row_.words_.assign(words.begin(), words.end());
  }

  /// Number of set bits.
  size_t Count() const { return row_.Count(0); }

  /// Calls `fn(id)` for every set id present, ascending.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    row_.ForEachId(0, fn);
  }

  /// The set ids present, ascending.
  std::vector<uint32_t> ToIds() const {
    std::vector<uint32_t> ids;
    ForEachId([&](uint32_t id) { ids.push_back(id); });
    return ids;
  }

  friend bool operator==(const SetIdBitmap& a, const SetIdBitmap& b) {
    return a.universe() == b.universe() &&
           std::ranges::equal(a.row_.RowWords(0), b.row_.RowWords(0));
  }
  friend bool operator!=(const SetIdBitmap& a, const SetIdBitmap& b) {
    return !(a == b);
  }

 private:
  SetIdRows row_;  ///< one row; none while default-constructed
};

}  // namespace shbf

#endif  // SHBF_MULTISET_SET_ID_BITMAP_H_
