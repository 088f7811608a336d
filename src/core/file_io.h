// Whole-file read/write helpers shared by the CLI tools, the serving layer
// and the mmap storage layer (filter envelopes and images are shipped as
// files: build → serve → snapshot → reload). All helpers use POSIX fds
// directly so short writes, ENOSPC and fsync failures surface as Status —
// never as a silently truncated file out of an iostream destructor.

#ifndef SHBF_CORE_FILE_IO_H_
#define SHBF_CORE_FILE_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace shbf {

/// Reads the whole file at `path` into `*out`. kNotFound if unopenable,
/// kInternal on a mid-read error.
Status ReadFileToString(const std::string& path, std::string* out);

/// The one durable writer: replaces the file at `path` with the
/// concatenation of `spans`, crash-consistently. The bytes go to a fresh
/// temp file beside the target ("<path>.tmp.<pid>.<n>", created exclusively
/// at mode 0644 under the umask; a name already taken, such as a stray left
/// by a killed writer with the same pid, is skipped), which is fsynced,
/// renamed over `path`, and then the directory is fsynced. A reader of
/// `path` — or the file a crash leaves behind — is the complete old file or
/// the complete new one, never a torn mix. The target gets a new inode. A
/// symlink at `path` is followed: the file it resolves to is replaced and
/// the link stays (a dangling link fails). An OK means every byte reached
/// the device.
///
/// Only a target that already exists and is not a regular file (a device
/// such as /dev/full, a FIFO) is written in place, since a rename would
/// replace that node.
///
/// A short write or write error fails with the path and errno in the
/// message — kResourceExhausted for the ENOSPC/EDQUOT/EFBIG family (full
/// disk, size-capped file), kInternal otherwise — and the temp file is
/// unlinked, leaving the old file at `path` untouched.
Status WriteStringToFile(const std::string& path,
                         const std::vector<std::string_view>& spans);

/// The one-span case of the writer above.
Status WriteStringToFile(const std::string& path, const std::string& bytes);

/// fsyncs the directory itself, making a just-renamed entry durable (the
/// last step of the writer above; see docs/persistence.md).
Status SyncDirectory(const std::string& dir_path);

/// The directory component of `path` ("." when there is none) — the target
/// SyncDirectory wants after renaming `path` into place.
std::string DirectoryOf(const std::string& path);

}  // namespace shbf

#endif  // SHBF_CORE_FILE_IO_H_
