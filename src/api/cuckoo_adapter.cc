#include "api/cuckoo_adapter.h"

#include "core/serde.h"

namespace shbf {

void CuckooAdapter::Add(std::string_view key) {
  // One fingerprint copy per Add (multiset semantics). This is what makes
  // Remove safe: if key B aliases key A's fingerprint, B's own Add stored
  // its own copy, so Remove(A) strips one copy and B stays covered.
  // (A skip-if-Contains "set" shortcut would break exactly there — an
  // aliased Add would store nothing, and deleting the alias's copy would
  // turn B into a false negative.) Duplicate copies of one key are
  // bounded by its two buckets; a failed Insert bumps the key's counter
  // in the exact overfull side table the queries consult — degraded
  // capacity, possibly a redundant copy (Insert may have placed the
  // fingerprint while kicking another to the stash), never a lost key,
  // and O(1) memory per distinct hot key no matter how often it re-adds.
  // A "failed" Insert may still have stored the copy: the kick loop
  // places the new fingerprint and parks the last displaced one in the
  // victim stash, which num_items() counts. Only a rejected insert —
  // stash already occupied, nothing stored — goes to the side table.
  const size_t items_before = impl_.num_items();
  if (!impl_.Insert(key) && impl_.num_items() == items_before) {
    auto [it, inserted] = overfull_.emplace(key, 1);
    if (!inserted) ++it->second;
    ++overfull_total_;
  }
}

Status CuckooAdapter::Remove(std::string_view key) {
  // The exact side table first: removing from it can never disturb other
  // keys, and it frees degraded capacity.
  auto it = overfull_.find(key);
  if (it != overfull_.end()) {
    if (--it->second == 0) overfull_.erase(it);
    --overfull_total_;
    return Status::Ok();
  }
  if (!impl_.Delete(key)) {
    return Status::NotFound(name_ + ": Remove of an absent key");
  }
  return Status::Ok();
}

size_t CuckooAdapter::memory_bytes() const {
  size_t bytes = impl_.lanes() == 1 ? impl_.memory_bits() / 8 : 0;
  for (const auto& [key, count] : overfull_) {
    bytes += key.size() + sizeof(count);
  }
  return bytes;
}

std::string CuckooAdapter::ToBytes() const {
  ByteWriter writer;
  std::string native = impl_.ToBytes();
  writer.PutU64(native.size());
  writer.PutBytes(native.data(), native.size());
  std::vector<std::pair<std::string, uint64_t>> entries(overfull_.begin(),
                                                        overfull_.end());
  serde::WriteKeyCountList(&writer, entries);
  return writer.Take();
}

void CuckooAdapter::RestoreOverfull(
    std::vector<std::pair<std::string, uint64_t>> entries) {
  overfull_.clear();
  overfull_total_ = 0;
  for (auto& [key, count] : entries) {
    overfull_total_ += count;
    overfull_.emplace(std::move(key), count);
  }
}

}  // namespace shbf
