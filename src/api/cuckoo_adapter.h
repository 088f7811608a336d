// CuckooAdapter — the registry's "cuckoo" set: a CuckooFilter plus an exact
// side table for the keys whose insert found the filter full.
//
// Declared here rather than beside the other adapters in adapters.cc so
// that the multiset index can reach a catalog set's CuckooFilter through
// its type (dynamic_cast) and move its slots into a CuckooSlice lane
// (multiset/cuckoo_slice.h). The adapter object stays in the catalog and
// keeps answering, adding, removing and serializing through its filter,
// wherever the filter's slots live.

#ifndef SHBF_API_CUCKOO_ADAPTER_H_
#define SHBF_API_CUCKOO_ADAPTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/set_query_filter.h"
#include "baselines/cuckoo_filter.h"

namespace shbf {

class CuckooAdapter final : public MembershipFilter {
 public:
  CuckooAdapter(std::string name, CuckooFilter impl)
      : name_(std::move(name)), impl_(std::move(impl)) {}

  std::string_view name() const override { return name_; }
  void Add(std::string_view key) override;
  bool Contains(std::string_view key) const override {
    if (impl_.Contains(key)) return true;
    return overfull_.find(key) != overfull_.end();
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    if (impl_.ContainsWithStats(key, stats)) return true;
    return overfull_.find(key) != overfull_.end();
  }
  // The probe protocol answers for the fingerprint table alone, so it is
  // offered only while the side table holds nothing the engine would miss.
  BatchFastPath batch_fast_path() const override {
    if (!overfull_.empty()) return {};
    return &impl_;
  }
  Status Remove(std::string_view key) override;
  uint32_t capabilities() const override { return kIncrementalAdd | kRemove; }
  // Stored fingerprints + overfull copies, which survive deserialization.
  size_t num_elements() const override {
    return impl_.num_items() + overfull_total_;
  }
  void Clear() override {
    impl_.Clear();
    overfull_.clear();
    overfull_total_ = 0;
  }
  /// The filter's slots (none while they sit in a shared table, whose
  /// owner counts them) plus the side table: each key's bytes and its
  /// 8-byte count.
  size_t memory_bytes() const override;
  std::string ToBytes() const override;

  const CuckooFilter& impl() const { return impl_; }
  CuckooFilter* mutable_impl() { return &impl_; }

  /// True iff Contains can answer yes where the filter's buckets do not:
  /// a fingerprint sits in the victim stash, or a key in the side table.
  bool AnswersBeyondBuckets() const {
    return impl_.HasVictim() || !overfull_.empty();
  }

  void RestoreOverfull(std::vector<std::pair<std::string, uint64_t>> entries);

 private:
  std::string name_;
  CuckooFilter impl_;
  std::map<std::string, uint64_t, std::less<>> overfull_;
  size_t overfull_total_ = 0;
};

}  // namespace shbf

#endif  // SHBF_API_CUCKOO_ADAPTER_H_
