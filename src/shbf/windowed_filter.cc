#include "shbf/windowed_filter.h"

namespace shbf {
namespace {

// Runs the layout's checks before any member is built from it, so a bad
// layout fails its CHECK instead of dividing by t + 1 = 0.
const WindowedFilter::Layout& Checked(const WindowedFilter::Layout& layout) {
  CheckOk(layout.Validate("WindowedFilter"));
  return layout;
}

}  // namespace

Status WindowedFilter::Layout::Validate(const char* name) const {
  const auto bad = [name](const char* what) {
    return Status::InvalidArgument(std::string(name) + ": " + what);
  };
  if (num_bits == 0) return bad("num_bits must be positive");
  // The range check comes first: t + 1 below must not wrap to 0.
  if (num_shifts > kDefaultMaxOffsetSpan - 1) {
    return bad("num_shifts must be at most 56 (w - 8)");
  }
  if (num_hashes == 0 || num_hashes % (num_shifts + 1) != 0) {
    return bad("num_hashes must be a positive multiple of t + 1");
  }
  if (num_hashes > num_bits) return bad("num_hashes exceeds num_bits");
  if (num_shifts == 0) return Status::Ok();
  if (max_offset_span < 2 || max_offset_span > BitArray::kWindowBits) {
    // Below 2 an offset would be 0 and merge two bits into one (§3.1);
    // above w − 7 a shifted bit would leave the one-access window.
    return bad("max_offset_span must be in [2, 57]");
  }
  if ((max_offset_span - 1) % num_shifts != 0) {
    return bad("(max_offset_span - 1) must be divisible by t for equal "
               "partitions");
  }
  return Status::Ok();
}

WindowedFilter::WindowedFilter(const Layout& layout)
    : WindowedFilter(layout,
                     BitArray(Checked(layout).num_bits, layout.slack_bits()),
                     0) {}

WindowedFilter::WindowedFilter(const Layout& layout, BitArray bits,
                               size_t num_elements)
    : layout_(Checked(layout)),
      groups_(layout.num_hashes / (layout.num_shifts + 1)),
      partition_width_(layout.num_shifts == 0
                           ? 0
                           : (layout.max_offset_span - 1) / layout.num_shifts),
      family_(layout.hash_algorithm, groups_ + layout.num_shifts, layout.seed),
      bits_(std::move(bits)),
      num_elements_(num_elements) {
  SHBF_CHECK(bits_.num_bits() == layout.num_bits &&
             bits_.total_bits() == layout.num_bits + layout.slack_bits())
      << "adopted bits don't match the layout";
}

std::vector<uint64_t> WindowedFilter::OffsetsOf(std::string_view key) const {
  std::vector<uint64_t> offsets;
  for (uint64_t rest = NeedMask(family_.Bind(key)) & ~uint64_t{1}; rest != 0;
       rest &= rest - 1) {
    offsets.push_back(__builtin_ctzll(rest));
  }
  return offsets;
}

// The hot loops copy m and g into locals: a store into the bit array or a
// probe may alias a member, which would force a reload of each per window.
void WindowedFilter::Add(const void* data, size_t len) {
  const size_t m = layout_.num_bits;
  const uint32_t groups = groups_;
  const auto h = family_.Bind(data, len);
  const uint64_t need = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) Set(h(i) % m, need);
  ++num_elements_;
}

bool WindowedFilter::Contains(const void* data, size_t len) const {
  const size_t m = layout_.num_bits;
  const uint32_t groups = groups_;
  const auto h = family_.Bind(data, len);
  const uint64_t need = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) {
    if (!Holds(h(i) % m, need)) return false;
  }
  return true;
}

bool WindowedFilter::ContainsWithStats(std::string_view key,
                                       QueryStats* stats) const {
  const size_t m = layout_.num_bits;
  const uint32_t groups = groups_;
  ++stats->queries;
  stats->hash_computations += layout_.num_shifts;  // the offset functions
  const auto h = family_.Bind(key);
  const uint64_t need = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;  // one window load covers the t + 1 bits
    if (!Holds(h(i) % m, need)) return false;
  }
  return true;
}

void WindowedFilter::PrepareProbe(std::string_view key, Probe* probe) const {
  SHBF_DCHECK(layout_.num_hashes <= kMaxBatchHashes);
  const size_t m = layout_.num_bits;
  const uint32_t groups = groups_;
  const auto h = family_.Bind(key);
  probe->need = NeedMask(h);
  for (uint32_t i = 0; i < groups; ++i) probe->bases[i] = h(i) % m;
}

void WindowedFilter::Clear() {
  bits_.Clear();
  num_elements_ = 0;
}

Status WindowedFilter::MergeFrom(const WindowedFilter& other) {
  if (layout_ != other.layout_ || !bits_.OrWith(other.bits_)) {
    return Status::FailedPrecondition(
        "MergeFrom: layouts differ (geometry, hash family, seed or shifts)");
  }
  num_elements_ += other.num_elements_;
  return Status::Ok();
}

}  // namespace shbf
