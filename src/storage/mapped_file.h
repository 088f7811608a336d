// MappedFile — RAII read-only mmap of a filter image.
//
// One physical copy of the pages serves any number of processes: the
// mapping is MAP_SHARED + PROT_READ, so N servers (or N forked readers)
// mapping the same image share page-cache frames instead of each
// deserializing a private heap copy. The mapping is immutable for its whole
// lifetime — a concurrent SaveMapped renames a new file over the
// *directory entry*, never touching the bytes this mapping sees — which is
// what makes the open path TOCTOU-free: every header field is validated
// against, and every query served from, the same immutable bytes.

#ifndef SHBF_STORAGE_MAPPED_FILE_H_
#define SHBF_STORAGE_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/status.h"

namespace shbf {
namespace storage {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  /// Maps `path` read-only. Fails with kNotFound on an unopenable path and
  /// kInternal on an mmap error; an empty file fails (no image is empty).
  static Status OpenReadOnly(const std::string& path, MappedFile* out);

  bool valid() const { return data_ != nullptr; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  void Reset();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace storage
}  // namespace shbf

#endif  // SHBF_STORAGE_MAPPED_FILE_H_
