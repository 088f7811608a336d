// core/file_io contract tests: round trips, error Statuses that name the
// path, and — the part that only shows up when a disk fills — short writes
// surfacing as kResourceExhausted instead of a silently truncated file.
// ENOSPC is injected two ways: RLIMIT_FSIZE (a size-capped process makes
// write(2) past the cap fail with EFBIG, same Status family) and /dev/full
// where the platform provides it. A failed write must also leave the old
// file whole, a target that is not a regular file is written in place, a
// symlink is followed, and a killed writer's stray temp file never blocks a
// later write.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/file_io.h"

namespace shbf {
namespace {

TEST(FileIoTest, RoundTripsBinaryBytes) {
  const std::string path = ::testing::TempDir() + "/file_io_roundtrip.bin";
  std::string bytes;
  for (int i = 0; i < 4096; ++i) bytes.push_back(static_cast<char>(i * 31));
  bytes[100] = '\0';  // embedded NUL must survive
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, bytes);
  std::remove(path.c_str());
}

TEST(FileIoTest, OverwriteReplacesNotAppends) {
  const std::string path = ::testing::TempDir() + "/file_io_overwrite.bin";
  ASSERT_TRUE(WriteStringToFile(path, std::string(1000, 'a')).ok());
  ASSERT_TRUE(WriteStringToFile(path, "short").ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "short");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileNamesThePath) {
  std::string out;
  Status s = ReadFileToString("/nonexistent/dir/nothing.bin", &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("/nonexistent/dir/nothing.bin"),
            std::string::npos);
}

TEST(FileIoTest, UnwritableTargetNamesThePath) {
  Status s = WriteStringToFile("/nonexistent/dir/out.bin", "bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("/nonexistent/dir/out.bin"), std::string::npos);
}

TEST(FileIoTest, DirectoryOfSplitsPaths) {
  EXPECT_EQ(DirectoryOf("/a/b/c.bin"), "/a/b");
  EXPECT_EQ(DirectoryOf("/c.bin"), "/");
  EXPECT_EQ(DirectoryOf("c.bin"), ".");
}

TEST(FileIoTest, SyncDirectoryAcceptsRealDirectoriesOnly) {
  EXPECT_TRUE(SyncDirectory(::testing::TempDir()).ok());
  EXPECT_FALSE(SyncDirectory("/nonexistent/dir").ok());
}

/// The writer's temp files ("<stem>.tmp.<pid>.<n>") present in `dir`.
std::vector<std::string> TempFilesOf(const std::string& dir,
                                     const std::string& stem) {
  std::vector<std::string> found;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return found;
  while (struct dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(stem + ".tmp.", 0) == 0) found.push_back(name);
  }
  closedir(d);
  return found;
}

/// Waits for `pid` and returns its exit code, or -1 if it did not exit.
int ChildExitCode(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(FileIoTest, RelativePathIsWrittenInTheWorkingDirectory) {
  // A bare file name has no directory part: the temp file, the rename and
  // the directory fsync all happen in ".". In a child, so the test
  // process keeps its working directory.
  const std::string dir = ::testing::TempDir();
  const std::string stem = "file_io_relative.bin";
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (chdir(dir.c_str()) != 0) _exit(20);
    if (!WriteStringToFile(stem, "relative").ok()) _exit(21);
    _exit(0);
  }
  ASSERT_EQ(ChildExitCode(pid), 0) << "20 = chdir failed, 21 = write failed";
  std::string back;
  ASSERT_TRUE(ReadFileToString(dir + "/" + stem, &back).ok());
  EXPECT_EQ(back, "relative");
  EXPECT_TRUE(TempFilesOf(dir, stem).empty());
  std::remove((dir + "/" + stem).c_str());
}

TEST(FileIoTest, SymlinkIsFollowedAndKept) {
  // The file a symlink names gets the new bytes and the link stays a link.
  const std::string dir = ::testing::TempDir();
  const std::string file = dir + "/file_io_link_target.bin";
  const std::string link = dir + "/file_io_link";
  std::remove(link.c_str());
  ASSERT_TRUE(WriteStringToFile(file, "old").ok());
  ASSERT_EQ(symlink(file.c_str(), link.c_str()), 0);
  Status s = WriteStringToFile(link, "new");
  ASSERT_TRUE(s.ok()) << s.ToString();
  struct stat st {};
  ASSERT_EQ(lstat(link.c_str(), &st), 0);
  EXPECT_TRUE(S_ISLNK(st.st_mode));
  std::string back;
  ASSERT_TRUE(ReadFileToString(file, &back).ok());
  EXPECT_EQ(back, "new");
  EXPECT_TRUE(TempFilesOf(dir, "file_io_link").empty());
  std::remove(link.c_str());
  std::remove(file.c_str());
}

TEST(FileIoTest, StdoutRedirectedToAFileWritesThatFile) {
  // `shbf_cli build keys.txt /dev/stdout > f.shbf`: /dev/stdout links to
  // /proc/self/fd/1, which links to f.shbf. The bytes must reach f.shbf;
  // no temp file or rename may land in /dev or /proc. In a child, so the
  // test process keeps its stdout.
  if (access("/proc/self/fd/1", F_OK) != 0) {
    GTEST_SKIP() << "/proc/self/fd not available";
  }
  const std::string dir = ::testing::TempDir();
  const std::string stem = "file_io_stdout.bin";
  const std::string path = dir + "/" + stem;
  std::remove(path.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 1) != 1) _exit(20);
    if (!WriteStringToFile("/proc/self/fd/1", "via stdout").ok()) _exit(21);
    _exit(0);
  }
  ASSERT_EQ(ChildExitCode(pid), 0) << "20 = redirect failed, 21 = write failed";
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "via stdout");
  EXPECT_TRUE(TempFilesOf(dir, stem).empty());
  std::remove(path.c_str());
}

TEST(FileIoTest, StrayTempFilesOfTheSamePidAreSkipped) {
  // A killed writer leaves "<path>.tmp.<pid>.<n>"; a later process that gets
  // the same pid (a container's pid 1 after a restart) counts n from 0 again
  // and must step past such strays rather than fail on them. A forked child
  // reads its next counter value off the temp name a write into a missing
  // directory reports, plants strays for the values after it, and writes.
  const std::string dir = ::testing::TempDir();
  const std::string stem = "file_io_stray.bin";
  const std::string path = dir + "/" + stem;
  std::remove(path.c_str());
  constexpr int kStrays = 5;
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string prefix = stem + ".tmp." + std::to_string(getpid()) + ".";
    const Status probe = WriteStringToFile(dir + "/missing/" + stem, "");
    const size_t at = probe.message().find(prefix);
    if (at == std::string::npos) _exit(20);
    const unsigned long long used =
        std::strtoull(probe.message().c_str() + at + prefix.size(), nullptr, 10);
    for (int i = 1; i <= kStrays; ++i) {
      const std::string stray = dir + "/" + prefix + std::to_string(used + i);
      const int fd = open(stray.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
      if (fd < 0) _exit(21);
      close(fd);
    }
    if (!WriteStringToFile(path, "past the strays").ok()) _exit(22);
    _exit(TempFilesOf(dir, stem).size() == size_t{kStrays} ? 0 : 23);
  }
  const int code = ChildExitCode(pid);
  const std::vector<std::string> strays = TempFilesOf(dir, stem);
  for (const std::string& stray : strays) std::remove((dir + "/" + stray).c_str());
  ASSERT_EQ(code, 0) << "(20 = temp name not reported, 21 = planting failed, "
                        "22 = write failed, 23 = temp file left)";
  EXPECT_EQ(strays.size(), static_cast<size_t>(kStrays));
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "past the strays");
  std::remove(path.c_str());
}

TEST(FileIoTest, SizeCappedProcessReportsResourceExhaustion) {
  // RLIMIT_FSIZE injection, in a child so the parent's own file I/O stays
  // uncapped: cap file size at 8 KB, attempt a 64 KB write, and require a
  // kResourceExhausted-family failure that names the path — NOT an OK with
  // a truncated file on disk.
  const std::string path = ::testing::TempDir() + "/file_io_capped.bin";
  std::remove(path.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // write(2) past the cap delivers SIGXFSZ before failing with EFBIG;
    // ignore the signal so the error surfaces through errno.
    signal(SIGXFSZ, SIG_IGN);
    struct rlimit cap{.rlim_cur = 8192, .rlim_max = 8192};
    if (setrlimit(RLIMIT_FSIZE, &cap) != 0) _exit(20);
    Status s = WriteStringToFile(path, std::string(65536, 'x'));
    if (s.ok()) _exit(21);  // silent truncation: the bug this test exists for
    if (s.code() != Status::Code::kResourceExhausted) _exit(22);
    if (s.message().find(path) == std::string::npos) _exit(23);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "child exit " << WEXITSTATUS(status)
      << " (21 = silent truncation, 22 = wrong code, 23 = path missing)";
  std::remove(path.c_str());
}

TEST(FileIoTest, FailedWriteKeepsTheOldFile) {
  // Same RLIMIT_FSIZE child as above, but over an existing file: the failed
  // 64 KB write must leave the old bytes at `path` and no temp file behind.
  // A writer that truncates the target first leaves 8 KB of the new bytes.
  const std::string dir = ::testing::TempDir();
  const std::string stem = "file_io_keep_old.bin";
  const std::string path = dir + "/" + stem;
  std::remove(path.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    signal(SIGXFSZ, SIG_IGN);
    struct rlimit cap{.rlim_cur = 8192, .rlim_max = 8192};
    if (setrlimit(RLIMIT_FSIZE, &cap) != 0) _exit(20);
    if (!WriteStringToFile(path, "old bytes").ok()) _exit(21);
    if (WriteStringToFile(path, std::string(65536, 'x')).ok()) _exit(22);
    std::string back;
    if (!ReadFileToString(path, &back).ok() || back != "old bytes") _exit(23);
    if (!TempFilesOf(dir, stem).empty()) _exit(24);
    _exit(0);
  }
  EXPECT_EQ(ChildExitCode(pid), 0)
      << "(21 = first write failed, 22 = capped write succeeded, 23 = old "
         "bytes lost, 24 = temp file left)";
  std::remove(path.c_str());
}

TEST(FileIoTest, FifoIsWrittenInPlace) {
  // Renaming a file over a FIFO would replace the node; the writer writes
  // through it instead, and a FIFO having nothing to fsync is no failure.
  const std::string path = ::testing::TempDir() + "/file_io_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(10);  // a writer that replaced the FIFO would leave us blocked
    std::string back;
    if (!ReadFileToString(path, &back).ok()) _exit(20);
    _exit(back == "through the fifo" ? 0 : 21);
  }
  Status s = WriteStringToFile(path, "through the fifo");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ChildExitCode(pid), 0) << "(20 = open failed, 21 = wrong bytes)";
  struct stat st {};
  ASSERT_EQ(stat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  std::remove(path.c_str());
}

TEST(FileIoTest, DevFullReportsResourceExhaustion) {
  // /dev/full fails every write with ENOSPC; skip on platforms without it.
  if (access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Status s = WriteStringToFile("/dev/full", "bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kResourceExhausted) << s.ToString();
}

}  // namespace
}  // namespace shbf
