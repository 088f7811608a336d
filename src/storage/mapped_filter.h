// MappedFilter — a read-only MembershipFilter served straight off an mmap.
//
// Open (via FilterRegistry::OpenMapped) maps the image, validates the
// header, and rebuilds the named filter's *geometry* on the heap while its
// *bit storage* stays a BitArray view into the mapping — zero
// deserialization, so open cost is independent of filter size and the
// kernel shares one physical copy of the pages across every process
// mapping the image (tests/mapped_filter_test.cc forks readers to prove
// it). Queries (Contains and the engine's batch_fast_path) forward to the
// inner filter and are bit-identical to its heap twin.
//
// The wrapper is strictly read-only: capabilities() == 0, Add/Clear
// CHECK-fail (the server refuses ADD on a read-only serve instead of ever
// reaching them). ToBytes() still works — it reads the mapped payload —
// so SNAPSHOT of a mapped filter produces a normal heap envelope.

#ifndef SHBF_STORAGE_MAPPED_FILTER_H_
#define SHBF_STORAGE_MAPPED_FILTER_H_

#include <memory>
#include <string>
#include <string_view>

#include "api/set_query_filter.h"
#include "storage/filter_image.h"
#include "storage/mapped_file.h"

namespace shbf {
namespace storage {

struct OpenOptions {
  /// Verify every region's payload checksum at open. The default open
  /// validates only the header page (that is what makes it O(1) in filter
  /// size); the corruption fuzzer and the server's mmap RELOAD turn this on.
  bool verify_payload = false;
};

class MappedFilter final : public MembershipFilter {
 public:
  /// Takes ownership of the mapping and the inner filter whose bit array
  /// views into it. Built by FilterRegistry::OpenMapped.
  MappedFilter(MappedFile file, std::unique_ptr<MembershipFilter> inner,
               uint64_t generation);

  // ---- identity / lifecycle ----
  std::string_view name() const override { return inner_->name(); }
  size_t num_elements() const override { return inner_->num_elements(); }
  size_t memory_bytes() const override { return file_.size(); }
  void Clear() override;
  std::string ToBytes() const override { return inner_->ToBytes(); }

  // ---- queries: forwarded, bit-identical to the heap twin ----
  bool Contains(std::string_view key) const override {
    return inner_->Contains(key);
  }
  bool ContainsWithStats(std::string_view key,
                         QueryStats* stats) const override {
    return inner_->ContainsWithStats(key, stats);
  }
  BatchFastPath batch_fast_path() const override {
    return inner_->batch_fast_path();
  }

  // ---- read-only contract ----
  void Add(std::string_view key) override;
  uint32_t capabilities() const override { return 0; }
  bool IncrementalAdd() const override { return false; }

  // ---- image metadata ----
  /// The writer-chosen generation stamped into the header.
  uint64_t generation() const { return generation_; }
  /// The mapped file's path and size.
  const std::string& image_path() const { return file_.path(); }
  size_t image_bytes() const { return file_.size(); }
  /// The wrapped heap-geometry filter (its storage is the mapping).
  const MembershipFilter& inner() const { return *inner_; }

 private:
  // Declaration order is load-bearing: inner_'s BitArray views point into
  // file_'s mapping, so inner_ (declared later) must be destroyed first.
  MappedFile file_;
  std::unique_ptr<MembershipFilter> inner_;
  uint64_t generation_ = 0;
};

}  // namespace storage
}  // namespace shbf

#endif  // SHBF_STORAGE_MAPPED_FILTER_H_
