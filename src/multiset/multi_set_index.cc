#include "multiset/multi_set_index.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <utility>

#include "obs/metrics.h"

namespace shbf {

Status MultiSetIndex::CloneFilter(const MembershipFilter& source,
                                  const FilterRegistry& registry,
                                  std::unique_ptr<MembershipFilter>* out) {
  const std::string blob = FilterRegistry::Serialize(source);
  Status s = registry.Deserialize(blob, out);
  if (!s.ok()) {
    return Status::Internal("MultiSetIndex: cannot clone '" +
                            std::string(source.name()) +
                            "' for a summary node: " + s.ToString());
  }
  return Status::Ok();
}

size_t MultiSetIndex::MakeLeaf(uint32_t id, MembershipFilter* filter) {
  Node node;
  node.filter = filter;
  node.set_id = id;
  node.is_leaf = true;
  nodes_.push_back(std::move(node));
  const size_t index = nodes_.size() - 1;
  leaf_of_set_.emplace(id, index);
  return index;
}

namespace {

/// Keys almost surely in no real set, used to measure a fresh summary's
/// empirical false-positive rate. Deterministic, so builds are replayable.
std::string SentinelKey(int i) {
  return std::string("\x01") + "shbf-multiset-sentinel-" + std::to_string(i);
}

constexpr int kSentinelProbes = 64;

/// A summary node earns its probe only while it still says "no" often
/// enough to prune its subtree. A union of too many sets saturates its bit
/// array (fill ratio -> 1, the Bloofi caveat) and answers yes to
/// everything; aggregating past that point adds probes without pruning.
/// Empirical rule: a summary whose sentinel FPR exceeds 3/4 is discarded
/// and its children finalized as roots.
bool SummaryIsDiscriminative(const MembershipFilter& summary) {
  int positives = 0;
  for (int i = 0; i < kSentinelProbes; ++i) {
    positives += summary.Contains(SentinelKey(i)) ? 1 : 0;
  }
  return positives * 4 <= kSentinelProbes * 3;
}

}  // namespace

Status MultiSetIndex::BuildTree(const std::vector<size_t>& leaves,
                                const FilterRegistry& registry) {
  size_t tree_levels = 1;
  std::vector<size_t> level = leaves;
  while (level.size() > 1) {
    std::vector<size_t> next;
    bool aggregated = false;
    for (size_t begin = 0; begin < level.size();
         begin += options_.branching) {
      const size_t end =
          std::min(begin + options_.branching, level.size());
      if (end - begin == 1) {
        // A lone tail node needs no summary of itself.
        next.push_back(level[begin]);
        continue;
      }
      // Clone the first child as the summary seed, then union the
      // siblings in. A sibling whose geometry refuses the merge (same
      // backend name, different spec) is demoted to the scan list —
      // heterogeneous catalogs degrade, they don't fail.
      Node parent;
      Status s = CloneFilter(*nodes_[level[begin]].filter, registry,
                             &parent.summary);
      if (!s.ok()) return s;
      parent.children.push_back(level[begin]);
      for (size_t c = begin + 1; c < end; ++c) {
        const size_t child = level[c];
        if (parent.summary->MergeFrom(*nodes_[child].filter).ok()) {
          parent.children.push_back(child);
        } else if (nodes_[child].is_leaf) {
          scan_leaves_.push_back(child);
        } else {
          // One backend name can hold several geometry clusters, each of
          // which built its own summary; when those summaries refuse to
          // merge at a higher level, the child is a finished subtree —
          // finalize it as a root. Degrade, don't fail.
          roots_.push_back(child);
        }
      }
      if (parent.children.size() == 1) {
        // Every sibling was demoted: the summary would duplicate its only
        // child, so promote the child instead.
        next.push_back(parent.children.front());
        continue;
      }
      if (!SummaryIsDiscriminative(*parent.summary)) {
        // Saturated union: further aggregation cannot prune. The children
        // are finished subtrees — finalize them as roots.
        for (size_t child : parent.children) roots_.push_back(child);
        continue;
      }
      parent.filter = parent.summary.get();
      nodes_.push_back(std::move(parent));
      const size_t parent_index = nodes_.size() - 1;
      for (size_t child : nodes_[parent_index].children) {
        nodes_[child].parent = parent_index;
      }
      next.push_back(parent_index);
      aggregated = true;
    }
    if (!aggregated) {
      // Nothing combined this round (every chunk saturated or was a lone
      // tail): whatever is left are roots.
      roots_.insert(roots_.end(), next.begin(), next.end());
      levels_ = std::max(levels_, tree_levels);
      return Status::Ok();
    }
    ++tree_levels;
    level = std::move(next);
  }
  if (!level.empty()) roots_.push_back(level.front());
  levels_ = std::max(levels_, tree_levels);
  return Status::Ok();
}

Status MultiSetIndex::Build(SetCatalog* catalog,
                            const MultiSetIndexOptions& options,
                            std::unique_ptr<MultiSetIndex>* out) {
  if (catalog == nullptr || catalog->empty()) {
    return Status::FailedPrecondition(
        "MultiSetIndex: cannot index an empty catalog");
  }
  if (options.branching < 2) {
    return Status::InvalidArgument(
        "MultiSetIndex: branching must be >= 2, got " +
        std::to_string(options.branching));
  }
  auto index = std::unique_ptr<MultiSetIndex>(new MultiSetIndex());
  index->options_ = options;
  index->engine_ = BatchQueryEngine(
      BatchOptions{.batch_size = options.batch_size < 1 ? size_t{1}
                                                        : options.batch_size});
  index->id_bound_ = catalog->id_bound();

  // Partition the catalog: mergeable backends group per registry name (one
  // tree each), everything else scans. Entries() is id-ordered, so ids
  // within a tree cluster deterministically.
  std::map<std::string, std::vector<size_t>> groups;
  for (const SetCatalog::SetEntry* entry : catalog->Entries()) {
    MembershipFilter* filter = catalog->MutableFilter(entry->id);
    const size_t leaf = index->MakeLeaf(entry->id, filter);
    if (!options.force_scan &&
        (filter->capabilities() & kMergeable) != 0) {
      groups[std::string(filter->name())].push_back(leaf);
    } else {
      index->scan_leaves_.push_back(leaf);
    }
  }
  for (auto& [name, leaves] : groups) {
    if (leaves.size() < 2) {
      // A one-set tree is a scan with extra steps.
      index->scan_leaves_.insert(index->scan_leaves_.end(), leaves.begin(),
                                 leaves.end());
      continue;
    }
    Status s = index->BuildTree(leaves, FilterRegistry::Global());
    if (!s.ok()) return s;
  }
  if (index->levels_ == 0 && !index->scan_leaves_.empty()) index->levels_ = 1;
  index->AssignProbeStores();
  *out = std::move(index);
  return Status::Ok();
}

void MultiSetIndex::AssignProbeStores() {
  std::map<ProbeGeometry, std::vector<size_t>> users;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (const auto geometry = ShareableProbeGeometry(*nodes_[n].filter)) {
      users[*geometry].push_back(n);
    }
  }
  std::multimap<size_t, const std::vector<size_t>*, std::greater<>> by_use;
  for (const auto& [geometry, nodes] : users) {
    by_use.emplace(nodes.size(), &nodes);
  }
  size_t store = 0;
  for (const auto& [uses, nodes] : by_use) {
    // A shared probe saves work only when a second node reads it.
    if (uses < 2 || store == SharedProbeBatch::kMaxStores) break;
    for (size_t n : *nodes) nodes_[n].probe_store = store;
    ++store;
  }
}

void MultiSetIndex::WhichSets(std::string_view key, SetIdBitmap* out) const {
  std::vector<SetIdBitmap> answers;
  WhichSetsBatch(std::vector<std::string_view>{key}, &answers);
  *out = std::move(answers.front());
}

template <typename Keys>
void MultiSetIndex::WhichSetsBatchImpl(const Keys& keys,
                                       std::vector<SetIdBitmap>* out) const {
  out->assign(keys.size(), SetIdBitmap(id_bound_));
  uint64_t probes = 0;  // one per key per filter consulted
  uint64_t pruned = 0;  // keys dropped at summary nodes
  // Depth-first over (node, indices of the keys still alive for its
  // subtree): one batch resolve per node, and only the survivors descend.
  struct Work {
    size_t node;
    std::vector<uint32_t> alive;
  };
  std::vector<Work> stack;
  std::vector<uint32_t> all;
  std::vector<uint8_t> results;
  // The probe cache lives for this call only, and chunking bounds it: at
  // most kMaxStores x kMaxKeys probes, whatever the batch size.
  SharedProbeBatch batch(engine_);
  for (size_t begin = 0; begin < keys.size();
       begin += SharedProbeBatch::kMaxKeys) {
    batch.Reset(std::span(keys).subspan(
        begin, std::min(SharedProbeBatch::kMaxKeys, keys.size() - begin)));
    SetIdBitmap* answers = out->data() + begin;
    all.resize(batch.num_keys());
    std::iota(all.begin(), all.end(), 0u);
    for (size_t leaf : scan_leaves_) {
      const Node& node = nodes_[leaf];
      if (!node.live || node.filter == nullptr) continue;
      batch.ContainsBatch(*node.filter, node.probe_store, all, &results);
      probes += all.size();
      for (size_t i = 0; i < all.size(); ++i) {
        if (results[i] != 0) answers[i].Set(node.set_id);
      }
    }
    for (size_t root : roots_) stack.push_back(Work{root, all});
    while (!stack.empty()) {
      Work work = std::move(stack.back());
      stack.pop_back();
      const Node& node = nodes_[work.node];
      if (node.is_leaf && (!node.live || node.filter == nullptr)) continue;
      batch.ContainsBatch(*node.filter, node.probe_store, work.alive,
                          &results);
      probes += work.alive.size();
      size_t kept = 0;
      for (size_t g = 0; g < work.alive.size(); ++g) {
        if (results[g] != 0) work.alive[kept++] = work.alive[g];
      }
      if (!node.is_leaf) pruned += work.alive.size() - kept;
      work.alive.resize(kept);
      if (kept == 0) continue;
      if (node.is_leaf) {
        for (uint32_t i : work.alive) answers[i].Set(node.set_id);
        continue;
      }
      for (size_t c = node.children.size() - 1; c > 0; --c) {
        stack.push_back(Work{node.children[c], work.alive});
      }
      stack.push_back(Work{node.children.front(), std::move(work.alive)});
    }
  }
  probes_.fetch_add(probes, std::memory_order_relaxed);
  if (obs::Enabled()) {
    static obs::Counter* const probes_total =
        obs::MetricsRegistry::Global().GetCounter("multiset.probes_total");
    static obs::Counter* const pruned_total =
        obs::MetricsRegistry::Global().GetCounter(
            "multiset.pruned_keys_total");
    probes_total->Increment(probes);
    pruned_total->Increment(pruned);
  }
}

void MultiSetIndex::WhichSetsBatch(const std::vector<std::string>& keys,
                                   std::vector<SetIdBitmap>* out) const {
  WhichSetsBatchImpl(keys, out);
}

void MultiSetIndex::WhichSetsBatch(const std::vector<std::string_view>& keys,
                                   std::vector<SetIdBitmap>* out) const {
  WhichSetsBatchImpl(keys, out);
}

Status MultiSetIndex::AddKey(uint32_t set_id, std::string_view key) {
  auto it = leaf_of_set_.find(set_id);
  if (it == leaf_of_set_.end()) {
    return Status::NotFound("MultiSetIndex: no live set with id " +
                            std::to_string(set_id));
  }
  Node& leaf = nodes_[it->second];
  leaf.filter->Add(key);
  for (size_t p = leaf.parent; p != kNoParent; p = nodes_[p].parent) {
    nodes_[p].summary->Add(key);
  }
  return Status::Ok();
}

Status MultiSetIndex::AddKeys(uint32_t set_id,
                              const std::vector<std::string>& keys) {
  for (const auto& key : keys) {
    Status s = AddKey(set_id, key);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status MultiSetIndex::RemoveSet(uint32_t set_id) {
  auto it = leaf_of_set_.find(set_id);
  if (it == leaf_of_set_.end()) {
    return Status::NotFound("MultiSetIndex: no live set with id " +
                            std::to_string(set_id));
  }
  Node& leaf = nodes_[it->second];
  leaf.live = false;
  leaf.filter = nullptr;  // the catalog is about to free it
  scan_leaves_.erase(
      std::remove(scan_leaves_.begin(), scan_leaves_.end(), it->second),
      scan_leaves_.end());
  leaf_of_set_.erase(it);
  return Status::Ok();
}

void MultiSetIndex::PrepareForConstReads() {
  for (Node& node : nodes_) {
    if (node.filter != nullptr) node.filter->PrepareForConstReads();
  }
}

MultiSetIndex::Stats MultiSetIndex::stats() const {
  Stats stats;
  stats.sets = leaf_of_set_.size();
  stats.trees = roots_.size();
  stats.levels = levels_;
  stats.probes = probes_.load(std::memory_order_relaxed);
  for (const Node& node : nodes_) {
    if (node.is_leaf) continue;
    ++stats.summary_nodes;
    stats.summary_memory_bytes += node.summary->memory_bytes();
  }
  for (size_t leaf : scan_leaves_) {
    if (nodes_[leaf].live) ++stats.scan_leaves;
  }
  stats.tree_leaves = stats.sets - stats.scan_leaves;
  return stats;
}

}  // namespace shbf
