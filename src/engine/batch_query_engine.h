// BatchQueryEngine — the batched front end for every filter in the registry.
//
// The paper's speed claim (§6: "one memory access per query") leaves two
// latencies on the table when queries arrive one at a time: the hash
// computation of key i+1 cannot overlap the memory access of key i, and a
// cache miss stalls the whole pipeline. The engine closes both gaps with a
// two-pass batch protocol over groups of `batch_size` keys:
//
//   pass 1  PrepareProbe   every hash of every key in the group (pure ALU)
//           PrefetchProbe  __builtin_prefetch for every word pass 2 reads
//   pass 2  ResolveProbe   test the now-resident (or in-flight) windows
//
// The protocol is implemented natively — without virtual dispatch — by the
// structures whose query is a pure read of a few precomputable locations
// (the windowed core behind bloom, ShbfM §3 and its generalization, ShbfA
// §4, ShbfX §5, the split-block core, and the cuckoo filter); the engine
// discovers them through MembershipFilter::batch_fast_path(). Every other
// registered filter, and any filter whose k exceeds its probe protocol's
// bound, is served through its virtual ContainsBatch, so the engine answers
// for all schemes and is bit-identical to the per-key path in every case
// (tests/batch_engine_test.cc enforces this).
//
// The engine is the only loop that batches membership queries: no concrete
// filter has one of its own. The virtual ContainsBatch is MembershipFilter's
// per-key loop, except in the engine wrappers (DynamicFilter,
// AutoScalingFilter, ShardedMembershipFilter), where it is their entry
// point and sends each inner filter back through an engine.
//
// The split-block paths resolve a key with one whole-block subset test
// (BlockSubsetTest, core/bits.h) over a mask built inside PrepareProbe.

#ifndef SHBF_ENGINE_BATCH_QUERY_ENGINE_H_
#define SHBF_ENGINE_BATCH_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/set_query_filter.h"
#include "core/set_query_types.h"
#include "shbf/shbf_multiplicity.h"

namespace shbf {

/// Tuning knobs for BatchQueryEngine (FilterSpec::batch_size feeds this).
struct BatchOptions {
  /// Keys whose probes are prepared and prefetched before any is resolved.
  /// Larger groups expose more memory-level parallelism but hold more probe
  /// state live; 16–64 covers the useful range on current hardware. Values
  /// below 1 are treated as 1.
  size_t batch_size = 16;
};

/// Stateless (apart from its options) batched-query driver. One engine can
/// serve any number of filters from any number of threads concurrently; the
/// per-call scratch lives on the stack/heap of the call.
class BatchQueryEngine {
 public:
  explicit BatchQueryEngine(BatchOptions options = {});

  /// `results` is resized to `keys.size()`; entry i becomes 1 iff
  /// `filter.Contains(keys[i])` — bit-identical to the per-key path, only
  /// faster. Uses the non-virtual probe protocol when
  /// `filter.batch_fast_path()` offers one and k is within its bound, the
  /// filter's virtual ContainsBatch otherwise.
  void ContainsBatch(const MembershipFilter& filter,
                     const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const;

  /// View-indexed overload: identical answers without requiring the caller
  /// to own the key bytes (the multiset scan and the sharded wrapper pass
  /// views into their caller's keys instead of copying them). Views must
  /// stay valid for the duration of the call.
  void ContainsBatch(const MembershipFilter& filter,
                     const std::vector<std::string_view>& keys,
                     std::vector<uint8_t>* results) const;

  /// `counts` is resized to `keys.size()`; entry i becomes
  /// `filter.QueryCount(keys[i])`. Fast path: ShbfX.
  void QueryCountBatch(const MultiplicityFilter& filter,
                       const std::vector<std::string>& keys,
                       std::vector<uint64_t>* counts) const;

  /// `outcomes` is resized to `keys.size()`; entry i becomes
  /// `filter.Query(keys[i])`. Fast path: ShbfA.
  void QueryBatch(const AssociationFilter& filter,
                  const std::vector<std::string>& keys,
                  std::vector<AssociationOutcome>* outcomes) const;

  /// Concrete-class overload for callers holding a ShbfX directly (e.g.
  /// examples/flow_monitor.cc): batched QueryCount under an explicit
  /// report policy, which the interface-level path cannot express.
  void QueryCountBatch(const ShbfX& filter,
                       const std::vector<std::string>& keys,
                       MultiplicityReportPolicy policy,
                       std::vector<uint32_t>* counts) const;

  /// The configured group size (after clamping to >= 1).
  size_t batch_size() const { return batch_size_; }

 private:
  size_t batch_size_;
};

/// True iff `impl`'s probe protocol holds its k: each class sizes its Probe
/// for at most kMaxBatchHashes hashes, and a cuckoo probe is three hashes
/// whatever the geometry. A spec-built filter can exceed the bound; the
/// engine then declines the fast path rather than trip the implementation's
/// CHECK.
template <typename Impl>
bool ProbeFits(const Impl& impl) {
  if constexpr (std::is_same_v<Impl, CuckooFilter>) {
    return true;
  } else {
    return impl.num_hashes() <= Impl::kMaxBatchHashes;
  }
}

/// The `Impl` behind `filter`'s fast path if the engine runs its probe
/// protocol, null otherwise.
template <typename Impl>
const Impl* FastPathTo(const MembershipFilter& filter) {
  const BatchFastPath fast_path = filter.batch_fast_path();
  const Impl* const* impl = std::get_if<const Impl*>(&fast_path);
  return impl != nullptr && ProbeFits(**impl) ? *impl : nullptr;
}

}  // namespace shbf

#endif  // SHBF_ENGINE_BATCH_QUERY_ENGINE_H_
