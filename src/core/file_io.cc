#include "core/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace shbf {

namespace {

std::string Errno(const std::string& what, const std::string& path, int err) {
  return what + " " + path + ": " + std::strerror(err);
}

/// ENOSPC-class errno values surface as kResourceExhausted so callers (and
/// operators reading server logs) can tell a full disk from a code bug.
Status WriteError(const std::string& what, const std::string& path, int err) {
  const std::string message = Errno(what, path, err);
  if (err == ENOSPC || err == EDQUOT || err == EFBIG) {
    return Status::ResourceExhausted(message);
  }
  return Status::Internal(message);
}

/// Writes every span in order. Loops over partial writes: a short write
/// with no errno (size-capped file, almost-full disk) is still a failure
/// once the remainder won't go.
Status WriteSpans(int fd, const std::string& path,
                  const std::vector<std::string_view>& spans) {
  for (std::string_view span : spans) {
    while (!span.empty()) {
      const ssize_t n = ::write(fd, span.data(), span.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return WriteError("short write to", path, errno);
      }
      if (n == 0) return WriteError("short write to", path, ENOSPC);
      span.remove_prefix(static_cast<size_t>(n));
    }
  }
  return Status::Ok();
}

/// Numbers temp files per process, so writers in one process (two
/// SNAPSHOTs of one path) never share a temp file.
std::atomic<uint64_t> temp_counter{0};

/// How many taken temp names a write skips before it gives up.
constexpr int kTempNameAttempts = 1000;

/// Creates a fresh temp file beside `file` and names it in `*temp`. A name
/// that exists already is skipped: a killed writer's stray carries a pid a
/// later process can get again (a container's pid 1 after a restart), and
/// O_EXCL must not make that stray block every later write to the path.
int CreateTempFile(const std::string& file, std::string* temp) {
  const std::string prefix = file + ".tmp." + std::to_string(::getpid()) + ".";
  for (int attempt = 1;; ++attempt) {
    *temp = prefix + std::to_string(temp_counter.fetch_add(1));
    const int fd = ::open(temp->c_str(),
                          O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd >= 0 || errno != EEXIST || attempt == kTempNameAttempts) return fd;
  }
}

}  // namespace

Status ReadFileToString(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound(Errno("cannot open", path, errno));
  std::string bytes;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));
  }
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal(Errno("cannot read", path, err));
    }
    bytes.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  *out = std::move(bytes);
  return Status::Ok();
}

Status WriteStringToFile(const std::string& path,
                         const std::vector<std::string_view>& spans) {
  // A device or FIFO at `path` is written in place: renaming a file over it
  // would replace the node. Anything else is written to a fresh temp file
  // beside the target, so the rename stays on one filesystem and is atomic.
  struct stat st;
  const bool in_place = ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  // A symlink is followed, so the temp file and the rename land beside the
  // file it names and the link stays: /dev/stdout redirected to a file must
  // replace that file, never the /dev/stdout link.
  std::string file = path;
  if (!in_place && ::lstat(path.c_str(), &st) == 0 && S_ISLNK(st.st_mode)) {
    char* resolved = ::realpath(path.c_str(), nullptr);
    if (resolved == nullptr) return WriteError("cannot resolve", path, errno);
    file = resolved;
    std::free(resolved);
  }
  std::string target = path;
  const int fd = in_place ? ::open(path.c_str(), O_WRONLY | O_CLOEXEC)
                          : CreateTempFile(file, &target);
  if (fd < 0) return WriteError("cannot open", target, errno);
  Status status = WriteSpans(fd, path, spans);
  // fsync before the rename: the bytes reach the device before anything
  // points at them, so a crash can never publish a torn file. A FIFO or a
  // socket has nothing to synchronize (EINVAL).
  if (status.ok() && ::fsync(fd) != 0 && !(in_place && errno == EINVAL)) {
    status = WriteError("cannot fsync", path, errno);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = WriteError("cannot close", path, errno);
  }
  if (in_place) return status;
  if (status.ok() && ::rename(target.c_str(), file.c_str()) != 0) {
    status = WriteError("cannot rename into", path, errno);
  }
  if (!status.ok()) {
    ::unlink(target.c_str());
    return status;
  }
  return SyncDirectory(DirectoryOf(file));
}

Status WriteStringToFile(const std::string& path, const std::string& bytes) {
  return WriteStringToFile(path, std::vector<std::string_view>{bytes});
}

Status SyncDirectory(const std::string& dir_path) {
  const std::string dir = dir_path.empty() ? "." : dir_path;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound(Errno("cannot open directory", dir, errno));
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(Errno("cannot fsync directory", dir, err));
  }
  ::close(fd);
  return Status::Ok();
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace shbf
