#include "multiset/multi_set_index.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace shbf {

Status MultiSetIndex::Build(SetCatalog* catalog,
                            const MultiSetIndexOptions& options,
                            std::unique_ptr<MultiSetIndex>* out) {
  if (catalog == nullptr || catalog->empty()) {
    return Status::FailedPrecondition(
        "MultiSetIndex: cannot index an empty catalog");
  }
  auto index = std::unique_ptr<MultiSetIndex>(new MultiSetIndex());
  index->options_ = options;
  index->engine_ = BatchQueryEngine(
      BatchOptions{.batch_size = options.batch_size < 1 ? size_t{1}
                                                        : options.batch_size});
  index->id_bound_ = catalog->id_bound();
  Status s = index->SliceCatalog(catalog);
  if (!s.ok()) return s;
  *out = std::move(index);
  return Status::Ok();
}

Status MultiSetIndex::SliceCatalog(SetCatalog* catalog) {
  struct Group {
    const FilterRegistry::Entry* entry = nullptr;
    std::vector<SetSlice::Member> members;
  };
  // Keyed by registry name and image geometry (num_elements cleared): one
  // size and one hash family per slice. Entries() is id-ordered, so slots
  // follow ids within a slice.
  std::map<std::pair<std::string, storage::ImageGeometry>, Group> groups;
  std::map<CuckooSlice::Geometry, std::vector<CuckooSlice::Member>>
      cuckoo_groups;
  const FilterRegistry& registry = FilterRegistry::Global();
  for (const SetCatalog::SetEntry* entry : catalog->Entries()) {
    MembershipFilter* filter = catalog->MutableFilter(entry->id);
    members_[entry->id] = Member{.filter = filter};
    if (options_.force_scan) continue;
    // The adapter type, not the fast path, admits a cuckoo set: one whose
    // side table holds keys has no fast path but slices all the same.
    if (auto* cuckoo = dynamic_cast<CuckooAdapter*>(filter)) {
      if (CuckooSlice::Sliceable(cuckoo->impl())) {
        cuckoo_groups[CuckooSlice::Geometry::Of(cuckoo->impl())].push_back(
            {entry->id, cuckoo});
      }
      continue;
    }
    if (!SetSlice::Sliceable(*filter)) continue;
    // A sliceable probe is not enough: dynamic/shbf_m forwards its active
    // filter's fast path but keeps a delta beside it. Only an unwrapped
    // adapter, which its entry's mapped saver accepts, has one flat row
    // that is the whole set.
    const FilterRegistry::Entry* registered = registry.Find(filter->name());
    if (registered == nullptr || registered->mapped_saver == nullptr) {
      continue;
    }
    storage::ImageHeader header;
    std::vector<storage::RegionPayload> payloads;
    if (!registered->mapped_saver(*filter, &header, &payloads).ok() ||
        payloads.size() != 1) {
      continue;
    }
    header.geometry.num_elements = 0;
    Group& group = groups[{registered->name, header.geometry}];
    group.entry = registered;
    group.members.push_back(
        {entry->id, payloads.front().data, filter->num_elements()});
  }
  for (const auto& [key, group] : groups) {
    if (group.members.size() < 2) continue;  // a one-set slice is a scan
    std::shared_ptr<SetSlice> slice;
    std::vector<std::unique_ptr<MembershipFilter>> views;
    if (!SetSlice::Build(*group.entry, key.second, group.members, &slice,
                         &views)
             .ok()) {
      continue;  // the sets stay rows, on the scan
    }
    for (size_t slot = 0; slot < group.members.size(); ++slot) {
      const uint32_t id = group.members[slot].set_id;
      Member& member = members_[id];
      member.filter = views[slot].get();
      member.slice = slices_.size();
      member.slot = slot;
      // Frees the row filter; its bits now live in the slice.
      Status s = catalog->ReplaceFilter(id, std::move(views[slot]));
      if (!s.ok()) return s;
    }
    slices_.push_back(std::move(slice));
  }
  Status s = SliceCuckooSets(cuckoo_groups);
  if (!s.ok()) return s;
  for (const auto& [id, member] : members_) {
    if (member.slice == kNoSlice && member.cuckoo_slice == kNoSlice) {
      scan_.push_back(ScanSet{.filter = member.filter, .set_id = id});
    }
  }
  return Status::Ok();
}

Status MultiSetIndex::SliceCuckooSets(
    const std::map<CuckooSlice::Geometry, std::vector<CuckooSlice::Member>>&
        groups) {
  for (const auto& [geometry, group] : groups) {
    if (group.size() < 2) continue;  // a one-set slice is a scan
    std::unique_ptr<CuckooSlice> slice;
    Status s = CuckooSlice::Build(group, &slice);
    if (!s.ok()) return s;
    for (size_t lane = 0; lane < group.size(); ++lane) {
      Member& member = members_[group[lane].set_id];
      member.cuckoo_slice = cuckoo_slices_.size();
      member.slot = lane;
    }
    cuckoo_slices_.push_back(std::move(slice));
  }
  return Status::Ok();
}

void MultiSetIndex::WhichSetsBatch(const std::vector<std::string_view>& keys,
                                   SetIdRows* out) const {
  out->Reset(keys.size(), id_bound_);
  if (keys.empty()) return;
  const size_t n = keys.size();
  uint64_t probes = 0;  // Stats::probes
  for (const auto& slice : slices_) {
    if (slice->live_slots() == 0) continue;
    slice->WhichSets(keys, engine_.batch_size(), out);
    probes += n;
  }
  for (const auto& slice : cuckoo_slices_) {
    if (slice->live_lanes() == 0) continue;
    slice->WhichSets(keys, engine_.batch_size(), out);
    probes += n * (1 + slice->exception_lanes());
  }
  std::vector<uint8_t> results;
  for (const ScanSet& set : scan_) {
    engine_.ContainsBatch(*set.filter, keys, &results);
    probes += n;
    for (size_t i = 0; i < n; ++i) {
      if (results[i] != 0) out->Set(i, set.set_id);
    }
  }
  probes_.fetch_add(probes, std::memory_order_relaxed);
  if (obs::Enabled()) {
    static obs::Counter* const probes_total =
        obs::MetricsRegistry::Global().GetCounter("multiset.probes_total");
    probes_total->Increment(probes);
  }
}

void MultiSetIndex::WhichSetsBatch(const std::vector<std::string>& keys,
                                   SetIdRows* out) const {
  WhichSetsBatch(std::vector<std::string_view>(keys.begin(), keys.end()), out);
}

void MultiSetIndex::WhichSetsBatch(const std::vector<std::string_view>& keys,
                                   std::vector<SetIdBitmap>* out) const {
  SetIdRows rows;
  WhichSetsBatch(keys, &rows);
  out->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) (*out)[i].AssignRow(rows, i);
}

void MultiSetIndex::WhichSetsBatch(const std::vector<std::string>& keys,
                                   std::vector<SetIdBitmap>* out) const {
  WhichSetsBatch(std::vector<std::string_view>(keys.begin(), keys.end()), out);
}

void MultiSetIndex::WhichSets(std::string_view key, SetIdBitmap* out) const {
  SetIdRows rows;
  WhichSetsBatch(std::vector<std::string_view>{key}, &rows);
  out->AssignRow(rows, 0);
}

Status MultiSetIndex::AddKey(uint32_t set_id, std::string_view key) {
  auto it = members_.find(set_id);
  if (it == members_.end()) {
    return Status::NotFound("MultiSetIndex: no live set with id " +
                            std::to_string(set_id));
  }
  it->second.filter->Add(key);
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
  auto it = members_.find(set_id);
  if (it == members_.end()) {
    return Status::NotFound("MultiSetIndex: no live set with id " +
                            std::to_string(set_id));
  }
  if (it->second.slice != kNoSlice) {
    slices_[it->second.slice]->Drop(it->second.slot);
  } else if (it->second.cuckoo_slice != kNoSlice) {
    cuckoo_slices_[it->second.cuckoo_slice]->Drop(it->second.slot);
  } else {
    std::erase_if(scan_,
                  [&](const ScanSet& set) { return set.set_id == set_id; });
  }
  members_.erase(it);
  return Status::Ok();
}

void MultiSetIndex::PrepareForConstReads() {
  for (ScanSet& set : scan_) set.filter->PrepareForConstReads();
  for (auto& slice : cuckoo_slices_) slice->PrepareForConstReads();
}

MultiSetIndex::Stats MultiSetIndex::stats() const {
  Stats stats;
  stats.sets = members_.size();
  stats.scan_sets = scan_.size();
  stats.probes = probes_.load(std::memory_order_relaxed);
  for (const auto& slice : slices_) {
    const size_t live = slice->live_slots();
    if (live != 0) ++stats.slices;
    stats.sliced_sets += live;
    stats.memory_bytes += slice->memory_bytes();
  }
  for (const auto& slice : cuckoo_slices_) {
    const size_t live = slice->live_lanes();
    if (live != 0) {
      ++stats.slices;
      ++stats.cuckoo_slices;
    }
    stats.sliced_sets += live;
    stats.memory_bytes += slice->memory_bytes();
  }
  return stats;
}

}  // namespace shbf
