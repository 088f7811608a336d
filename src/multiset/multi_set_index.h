// MultiSetIndex — Bloofi-style "which of my N sets contain key k" over a
// SetCatalog (Crainiceanu & Lemire's hierarchical Bloom-filter index,
// adapted to the registry's heterogeneous backends).
//
// Every layer built so far answers questions about ONE set at a time; a
// deployment holding hundreds of named filters pays N probes per key for
// the multi-set question. This index builds a tree of merged summary
// filters over the catalog's mergeable sets (MergeFrom / BitArray::OrWith:
// a summary is the bitwise union of its children, hence a strict superset —
// a summary miss prunes the whole subtree with zero false negatives), so a
// key absent from most sets costs O(log N) probes instead of N. Sets whose
// backend cannot merge (fingerprint/counting schemes) fall back to a
// brute-force scan list and are probed individually — correctness is never
// gated on the backend.
//
// Tree construction clones the first child of each node through the
// registry's serialize/deserialize round trip (geometry and hash family
// included) and merges the siblings in; a sibling whose geometry refuses to
// merge is demoted to the scan list rather than rejected. Trees are built
// per registry backend name, and aggregation is ADAPTIVE: a freshly merged
// summary is probed with sentinel keys, and once its empirical FPR shows
// the union has saturated its bit array (the Bloofi caveat — a summary of
// too many sets says yes to everything), aggregation stops there and the
// children become tree roots. Sparse member filters (high bits/key) earn
// deep trees; densely filled ones degrade gracefully toward the scan.
//
// Queries descend the trees with one batch resolve per node over the keys
// still alive for its subtree, so dead keys leave the frontier at the
// highest level possible. The resolves go through a per-call
// SharedProbeBatch, which hashes each key once per shared probe geometry
// (a tree's nodes share one, as do sets built from one FilterSpec) instead
// of once per node.
//
// Thread safety: queries are const and safe to run concurrently AFTER
// PrepareForConstReads(); AddKey / AddKeys / RemoveSet require exclusive
// access (the server wraps the index in a shared_mutex). The index holds
// raw pointers into the catalog's filters: the catalog must outlive the
// index, and RemoveSet must be told about a drop BEFORE the catalog frees
// the filter.

#ifndef SHBF_MULTISET_MULTI_SET_INDEX_H_
#define SHBF_MULTISET_MULTI_SET_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/set_catalog.h"
#include "core/status.h"
#include "engine/batch_query_engine.h"
#include "multiset/set_id_bitmap.h"

namespace shbf {

struct MultiSetIndexOptions {
  /// Children per summary node. Larger fan-out = shallower tree but less
  /// pruning per miss; 4–16 covers the useful range (Bloofi uses small
  /// fan-outs for the same reason B-trees do).
  size_t branching = 8;

  /// Group size of the engine every node's batch resolves through.
  size_t batch_size = 32;

  /// Skip tree construction: every set becomes a scan leaf. This is the
  /// linear brute-force reference the bench and the smoke gates compare
  /// against — same code path, no summaries.
  bool force_scan = false;
};

class MultiSetIndex {
 public:
  /// Builds the index over every set in `catalog` (which must outlive the
  /// index and not add/drop sets behind its back — route maintenance
  /// through AddKey/RemoveSet). Fails on an empty catalog or invalid
  /// options.
  static Status Build(SetCatalog* catalog, const MultiSetIndexOptions& options,
                      std::unique_ptr<MultiSetIndex>* out);

  /// The SetIdBitmap universe (catalog->id_bound() at build time).
  size_t id_bound() const { return id_bound_; }

  /// Sets bit s in `*out` iff set s (possibly) contains `key` — exactly the
  /// bits a brute-force Contains loop over the live sets would set (no
  /// false negatives; the same false positives as the member filters).
  /// A one-key WhichSetsBatch.
  void WhichSets(std::string_view key, SetIdBitmap* out) const;

  /// Batched WhichSets: `out` is resized to keys.size(); entry i receives
  /// WhichSets(keys[i]). The descent runs over chunks of
  /// SharedProbeBatch::kMaxKeys keys and tracks survivors as key indices,
  /// so no key bytes are copied.
  void WhichSetsBatch(const std::vector<std::string>& keys,
                      std::vector<SetIdBitmap>* out) const;

  /// View-indexed overload for callers that do not own contiguous
  /// std::strings (e.g. keys parsed in place from a request buffer). The
  /// views must stay valid for the duration of the call.
  void WhichSetsBatch(const std::vector<std::string_view>& keys,
                      std::vector<SetIdBitmap>* out) const;

  /// Incremental maintenance: adds `key` to set `set_id`'s filter AND to
  /// every summary on its root path, so the superset invariant holds
  /// without a rebuild. kNotFound for a dead or unknown id.
  Status AddKey(uint32_t set_id, std::string_view key);
  Status AddKeys(uint32_t set_id, const std::vector<std::string>& keys);

  /// Detaches a set: its id stops being reported and its filter pointer is
  /// dropped (call BEFORE SetCatalog::DropSet frees it). Summaries keep the
  /// dropped set's bits until the next full Build — stale bits cost false
  /// probes, never wrong answers.
  Status RemoveSet(uint32_t set_id);

  /// Completes deferred (lazy) builds in every member and summary filter,
  /// so subsequent const queries are pure (shared-lock safe). Call after a
  /// maintenance burst, from the writer section.
  void PrepareForConstReads();

  struct Stats {
    size_t sets = 0;           ///< live sets reported by queries
    size_t tree_leaves = 0;    ///< sets reachable through summary trees
    size_t scan_leaves = 0;    ///< sets probed brute-force
    size_t summary_nodes = 0;  ///< owned merged filters (internal nodes)
    size_t trees = 0;          ///< tree roots probed per query
    size_t levels = 0;         ///< deepest tree (1 = leaves only)
    size_t summary_memory_bytes = 0;  ///< footprint of the owned summaries
    uint64_t probes = 0;       ///< cumulative per-key filter probes served
  };
  Stats stats() const;

 private:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  struct Node {
    /// Probed filter: the catalog's for leaves (null once dropped),
    /// summary.get() for internal nodes.
    MembershipFilter* filter = nullptr;
    /// Owned merged filter (internal nodes only).
    std::unique_ptr<MembershipFilter> summary;
    std::vector<size_t> children;  ///< empty for leaves
    size_t parent = kNoParent;
    uint32_t set_id = 0;  ///< leaves only
    /// SharedProbeBatch store of this node's probe geometry, or kNoStore.
    size_t probe_store = SharedProbeBatch::kNoStore;
    bool is_leaf = false;
    bool live = true;
  };

  MultiSetIndex() = default;

  /// Makes a leaf node for catalog set `id` backed by `filter`.
  size_t MakeLeaf(uint32_t id, MembershipFilter* filter);

  /// Builds one summary tree bottom-up over `leaves` (node indices); leaves
  /// whose geometry refuses to merge are moved to `scan_leaves_`.
  Status BuildTree(const std::vector<size_t>& leaves,
                   const FilterRegistry& registry);

  /// Clones `source` via the registry envelope round trip.
  static Status CloneFilter(const MembershipFilter& source,
                            const FilterRegistry& registry,
                            std::unique_ptr<MembershipFilter>* out);

  /// Gives the kMaxStores most used shareable probe geometries, among
  /// those with at least two nodes, a SharedProbeBatch store each; every
  /// other node keeps its own engine pass.
  void AssignProbeStores();

  /// The descent behind both WhichSetsBatch overloads; `Keys` is a vector
  /// of std::string or std::string_view.
  template <typename Keys>
  void WhichSetsBatchImpl(const Keys& keys,
                          std::vector<SetIdBitmap>* out) const;

  MultiSetIndexOptions options_;
  BatchQueryEngine engine_{BatchOptions{}};
  size_t id_bound_ = 0;

  std::vector<Node> nodes_;
  std::vector<size_t> roots_;        ///< one per summary tree
  std::vector<size_t> scan_leaves_;  ///< probed for every key
  std::map<uint32_t, size_t> leaf_of_set_;

  size_t levels_ = 0;
  /// Cumulative key-probe counter (one per key per filter consulted), the
  /// bench's evidence that the tree touches fewer filters than the scan.
  mutable std::atomic<uint64_t> probes_{0};
};

}  // namespace shbf

#endif  // SHBF_MULTISET_MULTI_SET_INDEX_H_
