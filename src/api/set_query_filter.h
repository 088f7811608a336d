// The unified set-query interface layer (the paper's "framework" made
// literal). The paper presents ShBF as ONE framework answering three kinds
// of set queries — membership (§3), association (§4) and multiplicity (§5) —
// yet implementations naturally grow one bespoke class per scheme. This
// header is the seam that lets a single driver loop (bench, differential
// test, CLI, server) serve every variant:
//
//   SetQueryFilter                 — identity + lifecycle + serialization
//     └─ MembershipFilter          — Add / Contains (+ batch, + cost model)
//          ├─ MultiplicityFilter   — QueryCount; Contains == count > 0
//          └─ AssociationFilter    — AddToS1/S2, Query; Contains == in union
//
// Virtual dispatch costs a few ns per query, which the hot-path benches must
// not pay: the concrete classes remain intact and fully usable with inlined
// calls; the adapters in adapters.cc wrap them thinly for registry-driven
// code. Both views share the same underlying filter state. Five registry
// names sit on two cores: `bloom`, `shbf_m` and `shbf_g` are the t = 0, 1
// and t members of WindowedFilter (shbf/windowed_filter.h), and
// `split_block_bloom` and `split_block_shbf_m` the single-bit and pair
// layouts of SplitBlockFilter (shbf/split_block_filter.h).

#ifndef SHBF_API_SET_QUERY_FILTER_H_
#define SHBF_API_SET_QUERY_FILTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/query_stats.h"
#include "core/set_query_types.h"
#include "core/status.h"

namespace shbf {

class CuckooFilter;
class ShbfA;
class ShbfX;
class SplitBlockFilter;
class WindowedFilter;

/// The wrapped concrete filter for which the batch engine
/// (src/engine/batch_query_engine.h) has a specialized non-virtual path:
/// hash pre-compute, software prefetch, two-pass resolve.
///
/// Adapters whose wrapped class exposes the Probe protocol return a pointer
/// to it (a named class converts to its core); everything else returns
/// monostate and the engine falls back to the virtual per-key interface.
/// The pointer is only valid while the owning filter is alive.
using BatchFastPath =
    std::variant<std::monostate, const WindowedFilter*, const ShbfX*,
                 const ShbfA*, const SplitBlockFilter*, const CuckooFilter*>;

/// Capability bits a MembershipFilter advertises through capabilities().
/// The registry surfaces the same bits statically per entry
/// (FilterRegistry::Entry::capabilities, `shbf_cli list`), so scripts can
/// discover e.g. remove-capable filters without instantiating them.
enum FilterCapability : uint32_t {
  /// Remove(key) is supported (counting / fingerprint / buffered schemes).
  kRemove = 1u << 0,
  /// Add takes effect immediately (no deferred bulk rebuild on query).
  kIncrementalAdd = 1u << 1,
  /// MergeFrom(other) unions a same-geometry sibling into this filter.
  kMergeable = 1u << 2,
};

/// "add,remove,merge" / "bulk" rendering for CLIs and logs.
inline std::string CapabilitiesToString(uint32_t capabilities) {
  std::string out = (capabilities & kIncrementalAdd) ? "add" : "bulk";
  if (capabilities & kRemove) out += ",remove";
  if (capabilities & kMergeable) out += ",merge";
  return out;
}

/// Abstract base for every query-side structure in the library.
class SetQueryFilter {
 public:
  virtual ~SetQueryFilter() = default;

  /// The registry name this instance was constructed under ("shbf_m", ...).
  virtual std::string_view name() const = 0;

  /// Elements added through this interface since construction / Clear().
  virtual size_t num_elements() const = 0;

  /// Approximate live footprint of the filter state in bytes.
  virtual size_t memory_bytes() const = 0;

  /// Resets to the empty filter.
  virtual void Clear() = 0;

  /// Serializes the filter state (without the registry envelope; use
  /// FilterRegistry::Serialize for a self-describing blob).
  virtual std::string ToBytes() const = 0;
};

/// A filter answering "is e in S?" with no false negatives.
class MembershipFilter : public SetQueryFilter {
 public:
  virtual void Add(std::string_view key) = 0;
  virtual bool Contains(std::string_view key) const = 0;

  /// Same answer, accumulating the paper's cost model (memory accesses and
  /// hash computations) into `stats`. The default fallback counts only the
  /// query itself; adapters override it with the structure's real cost.
  virtual bool ContainsWithStats(std::string_view key,
                                 QueryStats* stats) const {
    ++stats->queries;
    return Contains(key);
  }

  /// Batched membership query. `results` is resized to keys.size(); entry i
  /// receives Contains(keys[i]). BatchQueryEngine is the one batch loop: it
  /// runs the probe protocol when batch_fast_path() offers one and calls
  /// this otherwise. The default is the per-key loop; only the engine
  /// wrappers (dynamic, scaling, sharded) override it, to send their inner
  /// filters back through the engine.
  virtual void ContainsBatch(const std::vector<std::string>& keys,
                             std::vector<uint8_t>* results) const {
    results->resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      (*results)[i] = Contains(keys[i]) ? 1 : 0;
    }
  }

  /// View-indexed batch query: identical answers without requiring callers
  /// to own the key bytes (the multi-set frontier descent passes views into
  /// its caller's keys instead of copying survivors). The views must stay
  /// valid for the duration of the call.
  virtual void ContainsBatch(const std::vector<std::string_view>& keys,
                             std::vector<uint8_t>* results) const {
    results->resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      (*results)[i] = Contains(keys[i]) ? 1 : 0;
    }
  }

  /// Removes one previously-added occurrence of `key`. Contract:
  ///   * Removing a key the filter can prove absent (Contains(key) == false)
  ///     returns kNotFound and leaves the filter unchanged.
  ///   * Removing a key that was never added but collides (a false positive)
  ///     is the standard counting-filter hazard: it may introduce false
  ///     negatives for OTHER keys. Callers must only remove keys they added;
  ///     the interface turns the detectable case into a Status instead of
  ///     the concrete classes' CHECK-abort.
  /// Default: kFailedPrecondition — the scheme cannot delete (plain bit
  /// arrays, min-increase sketches). Schemes that can advertise kRemove in
  /// capabilities().
  virtual Status Remove(std::string_view key) {
    (void)key;
    return Status::FailedPrecondition(std::string(name()) +
                                      ": Remove is not supported");
  }

  /// Unions `other` (same registry entry, same geometry and seed) into this
  /// filter. Default: kFailedPrecondition; bit-array schemes whose Add only
  /// sets bits implement it as a bitwise OR and advertise kMergeable.
  virtual Status MergeFrom(const MembershipFilter& other) {
    (void)other;
    return Status::FailedPrecondition(std::string(name()) +
                                      ": MergeFrom is not supported");
  }

  /// The capability bits of this instance; must agree with the registry
  /// entry it was built from. Default derives kIncrementalAdd from
  /// IncrementalAdd() so legacy adapters stay truthful.
  virtual uint32_t capabilities() const {
    return IncrementalAdd() ? kIncrementalAdd : 0u;
  }

  /// True if Add takes effect immediately. False for bulk-built structures
  /// (shbf_x, shbf_a): their Add buffers the key and the filter is rebuilt
  /// lazily on the next query, which is correct but costly under heavy
  /// add/query interleaving.
  virtual bool IncrementalAdd() const { return true; }

  /// Completes any deferred (lazy) build NOW, so every subsequent const
  /// query is pure — no hidden mutation inside Contains. Wrappers that
  /// promise shared-lock-safe reads (DynamicFilter after a fold) call this
  /// instead of relying on a probe query, which short-circuiting composites
  /// may route past a still-dirty component. Default: nothing is deferred.
  virtual void PrepareForConstReads() {}

  /// Escape hatch for the batch engine: adapters wrapping a concrete class
  /// with a Probe protocol return a typed pointer to it. Called once per
  /// batch (not per key), so lazily-built adapters use it to force a rebuild
  /// before handing out the pointer. Default: no fast path.
  virtual BatchFastPath batch_fast_path() const { return {}; }
};

/// A filter answering "how many times does e appear in the multi-set S?".
/// Estimates never underestimate; 0 means "definitely absent". Add() adds
/// one occurrence, so the membership view of a multiplicity filter is
/// "count > 0".
class MultiplicityFilter : public MembershipFilter {
 public:
  virtual uint64_t QueryCount(std::string_view key) const = 0;

  bool Contains(std::string_view key) const override {
    return QueryCount(key) > 0;
  }
};

/// A filter answering "which of S1/S2 does e belong to?" for e ∈ S1 ∪ S2.
/// The membership view is membership in the union: Add() inserts into S1 and
/// Contains() is "definitely-maybe in S1 ∪ S2" (kNotFound means definitely
/// absent; anything else preserves no-false-negatives for inserted keys).
class AssociationFilter : public MembershipFilter {
 public:
  virtual void AddToS1(std::string_view key) = 0;
  virtual void AddToS2(std::string_view key) = 0;
  virtual AssociationOutcome Query(std::string_view key) const = 0;

  virtual AssociationOutcome QueryWithStats(std::string_view key,
                                            QueryStats* stats) const {
    ++stats->queries;
    return Query(key);
  }

  void Add(std::string_view key) override { AddToS1(key); }

  bool Contains(std::string_view key) const override {
    return Query(key) != AssociationOutcome::kNotFound;
  }
};

}  // namespace shbf

#endif  // SHBF_API_SET_QUERY_FILTER_H_
