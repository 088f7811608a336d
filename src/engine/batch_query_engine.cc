#include "engine/batch_query_engine.h"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "baselines/cuckoo_filter.h"
#include "obs/metrics.h"
#include "shbf/shbf_association.h"
#include "shbf/split_block_filter.h"
#include "shbf/windowed_filter.h"

namespace shbf {
namespace {

// Below this footprint the filter is cache-resident and the two-pass
// prefetch protocol is pure overhead: the staging pass writes probes to a
// scratch vector that pass 2 immediately re-reads, while the prefetches hit
// lines already in cache. Group size 1 degrades the split-block loop to the
// straight hash → mask → test loop (prepare and resolve back to back, no
// staging traffic), which measures faster for both split-block variants
// when they fit here (docs/benchmarks.md "Cache-resident batch sizing").
// 4 MiB sits below typical shared-LLC slices while safely above L2, so
// filters this small are resident once the batch has touched them.
constexpr size_t kCacheResidentBytes = size_t{4} << 20;

// A split-block probe touches exactly one line, prefetched inside
// PrepareProbe, so the staging group only has to keep one fetch per key in
// flight — eight keys ahead already saturates the core's line-fill buffers
// (10-12 on current x86). Deeper groups spill probe state out of registers
// while the surplus prefetches queue behind the buffers: group 8 measures
// ~14% over group 32 at gate scale (docs/benchmarks.md "Cache-resident
// batch sizing"). The unblocked kinds keep the full batch_size — they issue
// up to k fetches per key and need the wider window.
constexpr size_t kSplitBlockGroupCap = 8;

// Runs the two-pass protocol over `keys` in groups of `group_size`:
// hash + prefetch the whole group, then resolve it, so every window pass 2
// reads is resident or in flight by the time it is loaded. `resolve(i, probe)`
// receives the key index and its prepared probe. `Keys` is any container of
// string-viewable elements (std::string or std::string_view).
template <typename Impl, typename Keys, typename Resolve>
void TwoPassLoop(const Impl& impl, const Keys& keys, size_t group_size,
                 Resolve&& resolve) {
  std::vector<typename Impl::Probe> probes(
      std::min(group_size, keys.size()));
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      impl.PrepareProbe(keys[start + g], &probes[g]);
      impl.PrefetchProbe(probes[g]);
    }
    for (size_t g = 0; g < group; ++g) {
      resolve(start + g, probes[g]);
    }
  }
}

// The split-block core, at every k: like TwoPassLoop, but without a
// prefetch pass — the split filters' PrepareProbe issues the block prefetch
// the moment the block index exists (before the mask build), so a second
// prefetch per key would be pure instruction overhead. A key's whole answer
// is one block mask + one BlockSubsetTest (the shbf_m pair bits are baked
// into the mask too); no gather/staging of windows at all. Memory-resident
// filters run groups of at most kSplitBlockGroupCap keys; cache-resident
// ones run group size 1, the straight hash → mask → test loop (staging
// overhead loses).
template <typename Keys>
void SplitBlockContains(const SplitBlockFilter& impl, const Keys& keys,
                        size_t batch_size, std::vector<uint8_t>* results) {
  const size_t group_size =
      impl.bits().allocated_bytes() <= kCacheResidentBytes
          ? 1
          : std::min(batch_size, kSplitBlockGroupCap);
  std::vector<SplitBlockFilter::Probe> probes(
      std::min(group_size, keys.size()));
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      impl.PrepareProbe(keys[start + g], &probes[g]);
    }
    for (size_t g = 0; g < group; ++g) {
      (*results)[start + g] = impl.ResolveProbe(probes[g]) ? 1 : 0;
    }
  }
}

// Handles into the process-global registry, resolved once. The fastpath /
// virtual split is the number ops people tune first: a filter that silently
// fell off its fast path (unsupported k, wrong impl) shows up here as
// virtual_batches_total climbing instead of fastpath_batches_total.
struct EngineMetrics {
  obs::Counter* batches = nullptr;
  obs::Counter* fastpath_batches = nullptr;
  obs::Counter* virtual_batches = nullptr;
  obs::Histogram* batch_keys = nullptr;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      EngineMetrics m;
      m.batches = registry.GetCounter("engine.batches_total");
      m.fastpath_batches =
          registry.GetCounter("engine.fastpath_batches_total");
      m.virtual_batches = registry.GetCounter("engine.virtual_batches_total");
      m.batch_keys = registry.GetHistogram("engine.batch_keys");
      return m;
    }();
    return metrics;
  }
};

// Records one batch's entry stats and returns whether to keep recording
// (saves repeated Enabled() loads at the branch exits).
inline bool RecordBatchEntry(size_t num_keys) {
  if (!obs::Enabled()) return false;
  const EngineMetrics& m = EngineMetrics::Get();
  m.batches->Increment();
  m.batch_keys->Record(num_keys);
  return true;
}

// A resolved probe as a membership answer: ShbfX's multiplicity view is
// count > 0 and ShbfA's association view any outcome but kNotFound, the
// same answers their adapters' Contains derive.
bool IsMember(bool hit) { return hit; }
bool IsMember(uint32_t count) { return count > 0; }
bool IsMember(AssociationOutcome outcome) {
  return outcome != AssociationOutcome::kNotFound;
}

// Runs `impl`'s probe protocol over the whole batch.
template <typename Impl, typename Keys>
void FastContains(const Impl& impl, const Keys& keys, size_t batch_size,
                  std::vector<uint8_t>* results) {
  if constexpr (std::is_same_v<Impl, SplitBlockFilter>) {
    SplitBlockContains(impl, keys, batch_size, results);
  } else {
    TwoPassLoop(impl, keys, batch_size, [&](size_t i, const auto& probe) {
      (*results)[i] = IsMember(impl.ResolveProbe(probe)) ? 1 : 0;
    });
  }
}

// One implementation serves both the string-keyed and the view-keyed public
// overloads; the fast paths are container-generic.
template <typename Keys>
void ContainsBatchImpl(const MembershipFilter& filter, const Keys& keys,
                       size_t batch_size, std::vector<uint8_t>* results) {
  results->resize(keys.size());
  if (keys.empty()) return;
  const bool record = RecordBatchEntry(keys.size());
  const bool fast = std::visit(
      [&](auto impl) {
        if constexpr (std::is_same_v<decltype(impl), std::monostate>) {
          return false;
        } else {
          if (!ProbeFits(*impl)) return false;
          FastContains(*impl, keys, batch_size, results);
          return true;
        }
      },
      filter.batch_fast_path());
  if (record) {
    const EngineMetrics& m = EngineMetrics::Get();
    (fast ? m.fastpath_batches : m.virtual_batches)->Increment();
  }
  if (!fast) filter.ContainsBatch(keys, results);
}

}  // namespace

BatchQueryEngine::BatchQueryEngine(BatchOptions options)
    : batch_size_(options.batch_size < 1 ? 1 : options.batch_size) {}

void BatchQueryEngine::ContainsBatch(const MembershipFilter& filter,
                                     const std::vector<std::string>& keys,
                                     std::vector<uint8_t>* results) const {
  ContainsBatchImpl(filter, keys, batch_size_, results);
}

void BatchQueryEngine::ContainsBatch(const MembershipFilter& filter,
                                     const std::vector<std::string_view>& keys,
                                     std::vector<uint8_t>* results) const {
  ContainsBatchImpl(filter, keys, batch_size_, results);
}

void BatchQueryEngine::QueryCountBatch(const MultiplicityFilter& filter,
                                       const std::vector<std::string>& keys,
                                       std::vector<uint64_t>* counts) const {
  counts->resize(keys.size());
  if (keys.empty()) return;
  const bool record = RecordBatchEntry(keys.size());
  if (const ShbfX* impl = FastPathTo<ShbfX>(filter)) {
    if (record) EngineMetrics::Get().fastpath_batches->Increment();
    TwoPassLoop(*impl, keys, batch_size_,
                [&](size_t i, const ShbfX::Probe& probe) {
                  (*counts)[i] = impl->ResolveProbe(probe);
                });
    return;
  }
  if (record) EngineMetrics::Get().virtual_batches->Increment();
  for (size_t i = 0; i < keys.size(); ++i) {
    (*counts)[i] = filter.QueryCount(keys[i]);
  }
}

void BatchQueryEngine::QueryBatch(
    const AssociationFilter& filter, const std::vector<std::string>& keys,
    std::vector<AssociationOutcome>* outcomes) const {
  outcomes->resize(keys.size());
  if (keys.empty()) return;
  const bool record = RecordBatchEntry(keys.size());
  if (const ShbfA* impl = FastPathTo<ShbfA>(filter)) {
    if (record) EngineMetrics::Get().fastpath_batches->Increment();
    TwoPassLoop(*impl, keys, batch_size_,
                [&](size_t i, const ShbfA::Probe& probe) {
                  (*outcomes)[i] = impl->ResolveProbe(probe);
                });
    return;
  }
  if (record) EngineMetrics::Get().virtual_batches->Increment();
  for (size_t i = 0; i < keys.size(); ++i) {
    (*outcomes)[i] = filter.Query(keys[i]);
  }
}

void BatchQueryEngine::QueryCountBatch(const ShbfX& filter,
                                       const std::vector<std::string>& keys,
                                       MultiplicityReportPolicy policy,
                                       std::vector<uint32_t>* counts) const {
  counts->resize(keys.size());
  if (keys.empty()) return;
  if (!ProbeFits(filter)) {
    for (size_t i = 0; i < keys.size(); ++i) {
      (*counts)[i] = filter.QueryCount(keys[i], policy);
    }
    return;
  }
  TwoPassLoop(filter, keys, batch_size_,
              [&](size_t i, const ShbfX::Probe& probe) {
                (*counts)[i] = filter.ResolveProbe(probe, policy);
              });
}

}  // namespace shbf
