// The four served workloads of the benchmark: their shapes, the keys they
// draw from a seed, the timed set-up that builds, saves, loads and serves
// them, the in-process twin every answer is checked against, and the pool
// of pre-encoded request frames the driver replays.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_spec.h"
#include "api/set_catalog.h"
#include "api/set_query_filter.h"
#include "core/status.h"
#include "multiset/multi_set_index.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

/// Connections the single driver thread keeps open (one per core of the
/// 4-core reference host).
inline constexpr size_t kConnections = 4;

/// Name the membership workloads serve their filter under.
inline constexpr std::string_view kServeName = "bench";

enum class Storage {
  kMapped,   ///< FilterRegistry::SaveMapped, served as "mmap:<path>"
  kHeap,     ///< registry envelope, served through LoadFilter(path)
  kCatalog,  ///< SetCatalog envelope, served through LoadCatalog(path)
};

struct WorkloadSpec {
  const char* name = "";
  /// Registry name of the served filter (of the mergeable sets for
  /// kCatalog; every `cuckoo_every`-th set is a cuckoo filter instead).
  const char* filter = "";
  size_t members = 0;  ///< stored keys (per set for kCatalog)
  double bits_per_key = 0;
  uint32_t num_hashes = 0;
  uint32_t shards = 1;
  Storage storage = Storage::kHeap;
  size_t frame_keys = 0;
  size_t window = 0;  ///< request frames in flight per connection
  double member_frac = 0;
  size_t read_frames = 0;  ///< distinct read frames in the pool
  /// 0 = read-only. N = every Nth frame on each connection is an ADD of
  /// frame_keys fresh keys; the run then goes in passes, and the served
  /// filter is RELOADed from its file between passes.
  size_t add_every = 0;
  size_t sets = 0;
  size_t cuckoo_every = 0;
  size_t branching = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// The same workload shrunk to run in well under a second (self-test).
WorkloadSpec TinyScale(const WorkloadSpec& spec);

/// FilterSpec of the served filter (of one mergeable set for kCatalog).
shbf::FilterSpec MakeFilterSpec(const WorkloadSpec& spec);

/// Keys are 15 bytes (std::string's inline capacity): a domain letter and
/// 14 hex digits of a mix of (seed, index). Domains never overlap, so an
/// absent or write key is never a stored member.
std::string MemberKey(uint64_t seed, uint64_t index);
std::string AbsentKey(uint64_t seed, uint64_t index);
std::string WriteKey(uint64_t seed, uint64_t index);
std::string SetKey(uint64_t seed, size_t set, size_t index);

/// Wall times of one set-up, in seconds.
struct SetupTimes {
  double total = 0;  ///< keys + build + save + load + Start + connect/HELLO
  double save = 0;   ///< SaveMapped, or Serialize + file write
  double load = 0;   ///< ShbfServer::LoadFilter / LoadCatalog
};

/// One served instance: the server and the driver's connected sockets,
/// closed and stopped on destruction.
struct Served {
  Served() = default;
  ~Served();
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  std::unique_ptr<shbf::ShbfServer> server;
  std::vector<int> fds;
  std::string path;  ///< the file the server loaded
};

/// Generates the keys, builds the filter (or catalog), writes it to a file
/// under `dir`, loads it into a fresh ShbfServer with default options,
/// starts it and opens kConnections connections with HELLO done.
shbf::Status SetUp(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& dir, Served* out, SetupTimes* times);

/// The oracle: an in-process copy of what the server serves.
struct Twin {
  std::unique_ptr<shbf::MembershipFilter> filter;  ///< membership workloads
  shbf::SetCatalog catalog;                        ///< kCatalog
  std::unique_ptr<shbf::MultiSetIndex> index;      ///< kCatalog
  double index_build_s = 0;                        ///< MultiSetIndex::Build
};

/// Loads the twin from the served file. With `key_seed` != the served
/// seed the twin is instead built from that seed's keys (the self-test's
/// deliberately wrong oracle), through the same save/load path.
shbf::Status MakeTwin(const WorkloadSpec& spec, uint64_t served_seed,
                      uint64_t key_seed, const std::string& served_path,
                      const std::string& dir, Twin* twin);

/// One pre-encoded request frame and what its answer must be.
struct Frame {
  uint64_t pool_index = 0;
  bool is_add = false;
  std::vector<std::string> keys;
  /// Per key: -1 absent; otherwise a member (for kCatalog, its set id).
  std::vector<int32_t> truth;
  std::string request;  ///< complete wire frame
  /// Exact expected response body (read-only workloads and ADD acks).
  std::string expected;
  /// False when `expected` misses a member (or a member's own set id).
  bool members_ok = true;
  /// mixed_rw QUERY answers: each must lie in [lo, hi] — lo from the
  /// preloaded twin, hi from the twin after every ADD of a pass.
  std::vector<uint8_t> lo, hi;
};

struct Pool {
  std::vector<Frame> reads;
  std::vector<Frame> adds;
  /// Per connection, the frames of one pass in send order.
  std::vector<std::vector<const Frame*>> schedule;
};

/// Draws the pool from `seed` and computes every expected answer on
/// `twin` (and, for mixed_rw, on `final_twin` = twin + every ADD).
shbf::Status BuildPool(const WorkloadSpec& spec, uint64_t seed,
                       const Twin& twin, shbf::MembershipFilter* final_twin,
                       Pool* pool);

/// Checks one response body against its frame; false with `*why` set on
/// any mismatch.
bool CheckResponse(const Frame& frame, std::string_view body, std::string* why);

/// Membership answers (one byte per key) out of a QUERY response body.
bool ParseQueryAnswers(std::string_view body, size_t keys,
                       std::vector<uint8_t>* answers);

/// Analytic FPR of the served geometry (analysis/membership_theory; the
/// cuckoo sets use Fan et al.'s 2b/2^f bound) and the stored-key count.
double TheoryFpr(const WorkloadSpec& spec, const Twin& twin,
                 uint64_t stored_keys);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
