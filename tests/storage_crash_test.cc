// Crash-consistency harness for every kind of file the durable writer
// (WriteStringToFile, core/file_io.h) produces: a flat image, a heap filter
// envelope and a SetCatalog. A child process is SIGKILLed at randomized
// points while it overwrites a generation-1 file with generation 2; the
// survivor on disk must ALWAYS reopen clean (image checksums verified) as
// exactly one of the two generations, answering exactly that generation's
// key set. A torn header, a half-written region or a renamed-but-unsynced
// file each fail this loudly.
//
// The protocol under test: write to a temp file, fsync, rename(2) over the
// target, fsync the directory. rename is the atomic commit point — the
// kill can land anywhere around it. The envelope and catalog generations
// are ~1 MB, so write(2) itself spans part of the kill window: a writer
// that truncated the target and rewrote it in place would leave torn files.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "core/file_io.h"
#include "storage/mapped_filter.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

constexpr int kIterations = 220;

FilterSpec SmallSpec() {
  FilterSpec spec;
  spec.num_cells = 60000;  // ~7.5 KB image payload: fast enough to rewrite
  spec.num_hashes = 4;     // hundreds of times, big enough to span pages.
  spec.expected_keys = 400;
  spec.seed = 0xc4a5;
  return spec;
}

std::unique_ptr<MembershipFilter> BuildGeneration(
    const std::vector<std::string>& keys,
    const FilterSpec& spec = SmallSpec()) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = FilterRegistry::Global().Create("shbf_m", spec, &filter);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (const auto& key : keys) filter->Add(key);
  return filter;
}

/// Removes any writer temp files (path + ".tmp.<pid>.<n>") a killed child
/// left behind, so 200 iterations don't litter the temp dir.
void RemoveStrayTempFiles(const std::string& dir, const std::string& stem) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind(stem + ".tmp.", 0) == 0) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  closedir(d);
}

TEST(StorageCrashTest, KilledWriterAlwaysLeavesOldOrNewNeverTorn) {
  TraceGenerator gen(0xdead);
  auto keys = gen.DistinctFlowKeys(1200);
  std::vector<std::string> gen1_keys(keys.begin(), keys.begin() + 400);
  std::vector<std::string> gen2_keys(keys.begin() + 400, keys.begin() + 800);
  std::vector<std::string> probes(keys.begin() + 800, keys.end());

  auto filter1 = BuildGeneration(gen1_keys);
  auto filter2 = BuildGeneration(gen2_keys);
  ASSERT_NE(filter1, nullptr);
  ASSERT_NE(filter2, nullptr);

  // Reference answers per generation over one shared probe list.
  std::vector<std::string> all = gen1_keys;
  all.insert(all.end(), gen2_keys.begin(), gen2_keys.end());
  all.insert(all.end(), probes.begin(), probes.end());
  std::vector<uint8_t> expect1(all.size()), expect2(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    expect1[i] = filter1->Contains(all[i]) ? 1 : 0;
    expect2[i] = filter2->Contains(all[i]) ? 1 : 0;
  }

  const std::string dir = ::testing::TempDir();
  const std::string stem = "crash_harness.shbi";
  const std::string path = dir + "/" + stem;
  const auto& registry = FilterRegistry::Global();

  // Calibrate the kill window: one full uncontested write, in microseconds.
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(registry.SaveMapped(*filter2, path, 2).ok());
  auto write_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  if (write_us < 50) write_us = 50;

  std::mt19937_64 rng(0x5eed);
  std::uniform_int_distribution<long> delay(0, 2 * write_us);
  int survived_old = 0;
  int survived_new = 0;

  for (int iteration = 0; iteration < kIterations; ++iteration) {
    SCOPED_TRACE(iteration);
    // Reset to a known generation-1 image.
    ASSERT_TRUE(registry.SaveMapped(*filter1, path, 1).ok());

    const long kill_after_us = delay(rng);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: overwrite with generation 2, then spin so the parent's
      // SIGKILL always finds us (never exit the parent's gtest state).
      Status s = registry.SaveMapped(*filter2, path, 2);
      (void)s;
      for (;;) pause();
    }
    if (kill_after_us > 0) usleep(static_cast<useconds_t>(kill_after_us));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    // The survivor must open clean — full payload verification — and be
    // exactly generation 1 or generation 2.
    std::unique_ptr<MembershipFilter> survivor;
    Status s = registry.OpenMapped(
        path, &survivor, storage::OpenOptions{.verify_payload = true});
    ASSERT_TRUE(s.ok()) << "torn image after kill at " << kill_after_us
                        << "us: " << s.ToString();
    auto* mapped = dynamic_cast<storage::MappedFilter*>(survivor.get());
    ASSERT_NE(mapped, nullptr);
    const uint64_t generation = mapped->generation();
    ASSERT_TRUE(generation == 1 || generation == 2) << generation;

    const std::vector<uint8_t>& expect = generation == 1 ? expect1 : expect2;
    for (size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(survivor->Contains(all[i]), expect[i] != 0)
          << "generation " << generation << " answered wrong for key " << i;
    }
    (generation == 1 ? survived_old : survived_new)++;
    RemoveStrayTempFiles(dir, stem);
  }

  // The harness is only meaningful if the kill window straddles the commit
  // point: both outcomes must actually occur across 220 samples.
  EXPECT_GT(survived_old, 0) << "every kill landed after the rename; "
                                "shrink the image or widen the window";
  EXPECT_GT(survived_new, 0) << "every kill landed before the rename";
  std::remove(path.c_str());
}

constexpr int kByteFileIterations = 120;

/// How the survivors of one SIGKILL loop reopened.
struct KillTally {
  int old_generation = 0;
  int new_generation = 0;
  int torn = 0;
  std::string first_torn;  ///< kill delay and reason of the first torn one
};

/// Reopens the survivor at a path and returns the generation it answers as
/// (1 or 2), or 0 with the reason in `*why` when it is torn.
using Classifier = std::function<int(const std::string& path,
                                     std::string* why)>;

/// The SIGKILL loop for byte files: each iteration resets `dir/stem` to
/// `gen1`, forks a child that overwrites it with `gen2` through
/// WriteStringToFile, SIGKILLs the child after a random delay of up to two
/// uncontested child writes, and classifies the survivor.
KillTally KillByteFileWriters(const std::string& dir, const std::string& stem,
                              const std::string& gen1,
                              const std::string& gen2,
                              const Classifier& classify) {
  const std::string path = dir + "/" + stem;
  // Calibrate the kill window on one uncontested child write, timed from
  // fork to exit: a slow fork (sanitizers, a loaded host) widens it.
  auto t0 = std::chrono::steady_clock::now();
  pid_t calibration = fork();
  if (calibration == 0) _exit(WriteStringToFile(path, gen2).ok() ? 0 : 1);
  int calibration_status = 0;
  EXPECT_EQ(waitpid(calibration, &calibration_status, 0), calibration);
  EXPECT_TRUE(WIFEXITED(calibration_status) &&
              WEXITSTATUS(calibration_status) == 0);
  auto write_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  if (write_us < 50) write_us = 50;

  std::mt19937_64 rng(0x5eed);
  std::uniform_int_distribution<long> delay(0, 2 * write_us);
  KillTally tally;
  for (int iteration = 0; iteration < kByteFileIterations; ++iteration) {
    Status reset = WriteStringToFile(path, gen1);
    if (!reset.ok()) {
      ADD_FAILURE() << "reset to generation 1: " << reset.ToString();
      break;
    }
    const long kill_after_us = delay(rng);
    pid_t pid = fork();
    if (pid < 0) {
      ADD_FAILURE() << "fork failed";
      break;
    }
    if (pid == 0) {
      Status s = WriteStringToFile(path, gen2);
      (void)s;
      for (;;) pause();
    }
    if (kill_after_us > 0) usleep(static_cast<useconds_t>(kill_after_us));
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);

    std::string why;
    switch (classify(path, &why)) {
      case 1:
        ++tally.old_generation;
        break;
      case 2:
        ++tally.new_generation;
        break;
      default:
        if (tally.torn++ == 0) {
          tally.first_torn =
              "kill at " + std::to_string(kill_after_us) + "us: " + why;
        }
    }
    RemoveStrayTempFiles(dir, stem);
  }
  std::remove(path.c_str());
  return tally;
}

void ExpectOldOrNewNeverTorn(const KillTally& tally) {
  EXPECT_EQ(tally.torn, 0) << tally.torn << " of " << kByteFileIterations
                           << " kills tore the file; first: "
                           << tally.first_torn;
  EXPECT_GT(tally.old_generation, 0) << "every kill landed after the rename";
  EXPECT_GT(tally.new_generation, 0) << "every kill landed before the rename";
}

/// The generation whose answers `answers` equals (1 or 2), else 0.
int GenerationOf(const std::vector<uint8_t>& answers,
                 const std::vector<uint8_t>& expect1,
                 const std::vector<uint8_t>& expect2, std::string* why) {
  if (answers == expect1) return 1;
  if (answers == expect2) return 2;
  *why = "answers match neither generation";
  return 0;
}

/// A SmallSpec with `num_cells` bits. The envelope and catalog cases size
/// their generations at ~1 MB, so that write(2) takes a visible share of
/// the kill window.
FilterSpec LargeSpec(uint64_t num_cells) {
  FilterSpec spec = SmallSpec();
  spec.num_cells = num_cells;
  spec.expected_keys = 1000;
  return spec;
}

TEST(StorageCrashTest, KilledEnvelopeWriterLeavesOldOrNewNeverTorn) {
  // A heap envelope: FilterRegistry::Serialize → WriteStringToFile,
  // reopened with ReadFileToString + Deserialize.
  TraceGenerator gen(0xfeed);
  const auto keys = gen.DistinctFlowKeys(3000);
  const FilterSpec spec = LargeSpec(8'000'000);  // 1 MB bit array
  auto filter1 = BuildGeneration({keys.begin(), keys.begin() + 1000}, spec);
  auto filter2 =
      BuildGeneration({keys.begin() + 1000, keys.begin() + 2000}, spec);
  auto answers_of = [&](const MembershipFilter& filter) {
    std::vector<uint8_t> answers;
    for (const auto& key : keys) {
      answers.push_back(filter.Contains(key) ? 1 : 0);
    }
    return answers;
  };
  const std::vector<uint8_t> expect1 = answers_of(*filter1);
  const std::vector<uint8_t> expect2 = answers_of(*filter2);
  ASSERT_NE(expect1, expect2);

  const Classifier classify = [&](const std::string& path, std::string* why) {
    std::string bytes;
    std::unique_ptr<MembershipFilter> survivor;
    Status s = ReadFileToString(path, &bytes);
    if (s.ok()) s = FilterRegistry::Global().Deserialize(bytes, &survivor);
    if (!s.ok()) {
      *why = s.ToString();
      return 0;
    }
    return GenerationOf(answers_of(*survivor), expect1, expect2, why);
  };
  ExpectOldOrNewNeverTorn(KillByteFileWriters(
      ::testing::TempDir(), "crash_envelope.shbf",
      FilterRegistry::Serialize(*filter1), FilterRegistry::Serialize(*filter2),
      classify));
}

TEST(StorageCrashTest, KilledCatalogWriterLeavesOldOrNewNeverTorn) {
  // A SetCatalog of four 256 KB sets, reopened with SetCatalog::Deserialize.
  // Generation 2 gives every set different keys.
  constexpr size_t kSets = 4;
  TraceGenerator gen(0xca7a);
  const auto keys = gen.DistinctFlowKeys(3 * kSets * 500);
  const FilterSpec spec = LargeSpec(2'000'000);
  auto build_catalog = [&](size_t first_key) {
    SetCatalog catalog;
    for (size_t set = 0; set < kSets; ++set) {
      const auto begin = keys.begin() + first_key + set * 500;
      Status s = catalog.AddSet("set-" + std::to_string(set),
                                BuildGeneration({begin, begin + 500}, spec));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return catalog;
  };
  auto answers_of = [&](const SetCatalog& catalog) {
    std::vector<uint8_t> answers;
    for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
      for (const auto& key : keys) {
        answers.push_back(entry->filter->Contains(key) ? 1 : 0);
      }
    }
    return answers;
  };
  const SetCatalog catalog1 = build_catalog(0);
  const SetCatalog catalog2 = build_catalog(kSets * 500);
  const std::vector<uint8_t> expect1 = answers_of(catalog1);
  const std::vector<uint8_t> expect2 = answers_of(catalog2);
  ASSERT_NE(expect1, expect2);

  const Classifier classify = [&](const std::string& path, std::string* why) {
    std::string bytes;
    SetCatalog survivor;
    Status s = ReadFileToString(path, &bytes);
    if (s.ok()) {
      s = SetCatalog::Deserialize(bytes, FilterRegistry::Global(), &survivor);
    }
    if (!s.ok()) {
      *why = s.ToString();
      return 0;
    }
    return GenerationOf(answers_of(survivor), expect1, expect2, why);
  };
  ExpectOldOrNewNeverTorn(KillByteFileWriters(
      ::testing::TempDir(), "crash_catalog.shbc", catalog1.Serialize(),
      catalog2.Serialize(), classify));
}

TEST(StorageCrashTest, WriterTempFilesNeverShadowTheCommittedImage) {
  // A killed writer may leave "<path>.tmp.<pid>.<n>" behind; reopening the
  // committed path must be unaffected by any such stray, and the stray
  // itself — a complete or partial image that was never renamed — must
  // never be picked up by OpenMapped of the real path.
  TraceGenerator gen(0xbeef);
  auto keys = gen.DistinctFlowKeys(400);
  auto filter = BuildGeneration(keys);
  const std::string path = ::testing::TempDir() + "/crash_stray.shbi";
  const auto& registry = FilterRegistry::Global();
  ASSERT_TRUE(registry.SaveMapped(*filter, path, 5).ok());

  // Plant a stray temp that looks like a half-finished generation 6.
  std::string stray = path + ".tmp.12345.0";
  ASSERT_TRUE(registry.SaveMapped(*filter, stray, 6).ok());
  ASSERT_EQ(truncate(stray.c_str(), 4096), 0);  // header only, no payload

  std::unique_ptr<MembershipFilter> reopened;
  Status s = registry.OpenMapped(path, &reopened,
                                 storage::OpenOptions{.verify_payload = true});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(dynamic_cast<storage::MappedFilter*>(reopened.get())->generation(),
            5u);
  std::remove(stray.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace shbf
