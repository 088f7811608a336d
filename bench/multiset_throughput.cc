// multiset_throughput — "which of my N sets contain key k" three ways: the
// sliced index vs the engine-batched linear scan vs the naive per-filter
// virtual loop; the acceptance bench for the multiset subsystem
// (src/multiset/, docs/multiset.md).
//
// Modes, each over its own copy of one catalog (a sliced copy's sets are
// views over its slices or lanes of one, which the other two modes must
// not time):
//   per_filter  for every key, Contains() on every catalog filter — what a
//               caller without the subsystem writes
//   linear      MultiSetIndex with force_scan: every set probed on its own,
//               one engine batch pass per set, as the index's scan does
//   index       the real MultiSetIndex: the shbf_m sets answered from one
//               bit-sliced SetSlice, the cuckoo sets from one CuckooSlice
//
// The default catalog mixes backends: every `mixed-every`-th set is a
// cuckoo filter, which slices apart from the shbf_m sets.
//
// usage: bench_multiset_throughput [--sets=N] [--keys-per-set=N]
//          [--queries=N] [--member-frac=F] [--bits-per-key=B] [--k=K]
//          [--batch=N] [--mixed-every=M] [--chunk=N] [--json=<path>]
//          [--smoke]
//
// --smoke shrinks the workload for CI and turns the run into a gate:
//   * >= 64 sets, the last one shbf_x, which no slice takes, so the index
//     answers through a SetSlice, a CuckooSlice and the scan,
//   * index WhichSets answers bit-identical to the linear scan AND to the
//     per-filter brute-force loop for every key,
//   * the same keys through an in-process ShbfServer's WHICH_SETS opcode
//     (catalog shipped through its serde envelope) answer bit-identical to
//     the local index,
//   * the index beats the linear scan on the (absent-heavy) workload.
//
// CSV on stdout: mode,sets,queries,seconds,kqps,probes,speedup_vs_linear.
// --json=<path> additionally writes rows of
// {workload, mode, keys_per_s, p50_us, p99_us} per `chunk` keys.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "bench_util/json_report.h"
#include "bench_util/timer.h"
#include "multiset/multi_set_index.h"
#include "server/client.h"
#include "server/server.h"

namespace shbf {
namespace {

struct Config {
  size_t sets = 128;
  size_t keys_per_set = 2000;
  size_t queries = 200000;
  /// Fraction of queries hitting a member key; the rest are absent (the
  /// needle-in-haystack shape which-sets deployments see).
  double member_frac = 0.1;
  double bits_per_key = 64.0;
  uint32_t num_hashes = 4;
  size_t batch_size = 32;
  /// Every M-th set is a cuckoo filter (a CuckooSlice lane);
  /// 0 = homogeneous.
  size_t mixed_every = 8;
  /// Keys per timed WhichSetsBatch call (the latency-sample unit).
  size_t chunk = 1024;
  std::string json_path;
  bool smoke = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

std::string SetKey(size_t set, size_t key) {
  return "set-" + std::to_string(set) + "-key-" + std::to_string(key);
}

/// The backend of set `set`. The smoke catalog's last set is shbf_x,
/// which no slice takes, so the gates cover the scan too.
const char* SetBackend(const Config& config, size_t set) {
  if (config.smoke && set + 1 == config.sets) return "shbf_x";
  return config.mixed_every != 0 && (set + 1) % config.mixed_every == 0
             ? "cuckoo"
             : "shbf_m";
}

Status BuildCatalog(const Config& config, SetCatalog* catalog) {
  for (size_t i = 0; i < config.sets; ++i) {
    FilterSpec spec = FilterSpec::ForKeys(config.keys_per_set,
                                          config.bits_per_key,
                                          config.num_hashes);
    spec.max_count = 8;
    std::unique_ptr<MembershipFilter> filter;
    Status s =
        FilterRegistry::Global().Create(SetBackend(config, i), spec, &filter);
    if (!s.ok()) return s;
    for (size_t k = 0; k < config.keys_per_set; ++k) filter->Add(SetKey(i, k));
    s = catalog->AddSet("set-" + std::to_string(i), std::move(filter));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

std::vector<std::string> MakeQueries(const Config& config) {
  std::vector<std::string> queries(config.queries);
  std::mt19937_64 rng(0x5e7f1e1d);
  for (size_t q = 0; q < config.queries; ++q) {
    if (std::uniform_real_distribution<double>(0, 1)(rng) <
        config.member_frac) {
      queries[q] = SetKey(rng() % config.sets, rng() % config.keys_per_set);
    } else {
      queries[q] = "absent-" + std::to_string(rng());
    }
  }
  return queries;
}

struct RunResult {
  double seconds = 0;
  uint64_t probes = 0;
  LatencyRecorder latencies;
  std::vector<SetIdBitmap> answers;
};

/// Times `index` over `queries` in chunks, collecting per-chunk latencies
/// and the full answer vector (for the smoke equivalence gates). Only the
/// WhichSetsBatch calls are timed, each into a fresh answer block, as the
/// server answers a frame.
RunResult RunIndex(const MultiSetIndex& index,
                   const std::vector<std::string>& queries, size_t chunk) {
  RunResult result;
  result.answers.reserve(queries.size());
  const uint64_t probes_before = index.stats().probes;
  std::vector<std::string> slice;
  for (size_t begin = 0; begin < queries.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, queries.size());
    slice.assign(queries.begin() + begin, queries.begin() + end);
    SetIdRows rows;
    WallTimer timer;
    index.WhichSetsBatch(slice, &rows);
    const double seconds = timer.ElapsedSeconds();
    result.latencies.Record(seconds);
    result.seconds += seconds;
    for (size_t i = 0; i < rows.rows(); ++i) {
      result.answers.emplace_back().AssignRow(rows, i);
    }
  }
  result.probes = index.stats().probes - probes_before;
  return result;
}

/// The naive caller: one virtual Contains per (key, filter) pair.
RunResult RunPerFilter(const SetCatalog& catalog,
                       const std::vector<std::string>& queries,
                       size_t chunk) {
  RunResult result;
  result.answers.assign(queries.size(), SetIdBitmap(catalog.id_bound()));
  const std::vector<const SetCatalog::SetEntry*> entries = catalog.Entries();
  WallTimer total;
  WallTimer timer;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const SetCatalog::SetEntry* entry : entries) {
      if (entry->filter->Contains(queries[q])) {
        result.answers[q].Set(entry->id);
      }
    }
    result.probes += entries.size();
    if ((q + 1) % chunk == 0 || q + 1 == queries.size()) {
      result.latencies.Record(timer.ElapsedSeconds());
      timer.Reset();
    }
  }
  result.seconds = total.ElapsedSeconds();
  return result;
}

void EmitRow(const Config& config, const char* mode, const RunResult& result,
             double linear_seconds, JsonReport* report) {
  const double kqps = result.seconds > 0
                          ? config.queries / result.seconds / 1e3
                          : 0.0;
  std::printf("%s,%zu,%zu,%.4f,%.1f,%llu,%.2f\n", mode, config.sets,
              config.queries, result.seconds, kqps,
              static_cast<unsigned long long>(result.probes),
              result.seconds > 0 ? linear_seconds / result.seconds : 0.0);
  report->AddRow()
      .Set("workload",
           "which-sets/" + std::to_string(config.sets) + "x" +
               std::to_string(config.keys_per_set))
      .Set("mode", mode)
      .Set("sets", static_cast<uint64_t>(config.sets))
      .Set("queries", static_cast<uint64_t>(config.queries))
      .Set("chunk_keys", static_cast<uint64_t>(config.chunk))
      .Set("keys_per_s",
           result.seconds > 0 ? config.queries / result.seconds : 0.0)
      .Set("p50_us", result.latencies.PercentileSeconds(50) * 1e6)
      .Set("p99_us", result.latencies.PercentileSeconds(99) * 1e6)
      .Set("filter_probes", result.probes);
}

/// Ships the catalog through its serde envelope into an in-process server
/// and replays `queries` through the WHICH_SETS opcode; every id list must
/// match the local index's bitmap exactly.
bool VerifyServerWhichSets(const std::string& catalog_blob,
                           const Config& config,
                           const std::vector<std::string>& queries,
                           const std::vector<SetIdBitmap>& expected) {
  SetCatalog catalog;
  Status s = SetCatalog::Deserialize(catalog_blob, FilterRegistry::Global(),
                                     &catalog);
  if (!s.ok()) {
    std::fprintf(stderr, "SMOKE FAILED: catalog reload: %s\n",
                 s.ToString().c_str());
    return false;
  }
  ShbfServer server;
  MultiSetIndexOptions options;
  options.batch_size = config.batch_size;
  s = server.ServeCatalog(std::move(catalog), options);
  if (s.ok()) s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "SMOKE FAILED: server start: %s\n",
                 s.ToString().c_str());
    return false;
  }
  ShbfClient client;
  s = client.Connect("127.0.0.1", server.port());
  if (!s.ok()) {
    std::fprintf(stderr, "SMOKE FAILED: connect: %s\n", s.ToString().c_str());
    return false;
  }
  constexpr size_t kFrameKeys = 4096;
  size_t verified = 0;
  for (size_t begin = 0; begin < queries.size(); begin += kFrameKeys) {
    const size_t end = std::min(begin + kFrameKeys, queries.size());
    const std::vector<std::string> frame(queries.begin() + begin,
                                         queries.begin() + end);
    std::vector<std::vector<uint32_t>> which;
    s = client.WhichSets(frame, &which);
    if (!s.ok()) {
      std::fprintf(stderr, "SMOKE FAILED: WHICH_SETS: %s\n",
                   s.ToString().c_str());
      return false;
    }
    for (size_t i = 0; i < frame.size(); ++i) {
      if (which[i] != expected[begin + i].ToIds()) {
        std::fprintf(stderr,
                     "SMOKE FAILED: server WHICH_SETS diverges from the "
                     "local index at key %zu\n",
                     begin + i);
        return false;
      }
      ++verified;
    }
  }
  server.Stop();
  std::fprintf(stderr, "# server WHICH_SETS bit-identical for %zu keys\n",
               verified);
  return true;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else if (ParseFlag(argv[i], "sets", &value)) {
      config.sets = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "keys-per-set", &value)) {
      config.keys_per_set = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "queries", &value)) {
      config.queries = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "member-frac", &value)) {
      config.member_frac = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "bits-per-key", &value)) {
      config.bits_per_key = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "k", &value)) {
      config.num_hashes = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "batch", &value)) {
      config.batch_size = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "mixed-every", &value)) {
      config.mixed_every = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "chunk", &value)) {
      config.chunk = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "json", &value)) {
      config.json_path = value;
    } else {
      std::fprintf(
          stderr,
          "usage: bench_multiset_throughput [--sets=N] [--keys-per-set=N] "
          "[--queries=N] [--member-frac=F] [--bits-per-key=B] [--k=K] "
          "[--batch=N] [--mixed-every=M] [--chunk=N] [--json=<path>] "
          "[--smoke]\n");
      return 2;
    }
  }
  if (config.smoke) {
    // Small enough for sanitizer CI, large enough for the acceptance
    // floor: >= 64 mixed sets, the index wins on the absent-heavy stream.
    config.sets = 64;
    config.keys_per_set = 250;
    config.queries = 8000;
    config.chunk = 512;
  }
  if (config.sets == 0 || config.keys_per_set == 0 || config.queries == 0 ||
      config.chunk == 0) {
    std::fprintf(stderr, "error: --sets, --keys-per-set, --queries and "
                         "--chunk must be positive\n");
    return 2;
  }
  if (config.smoke && config.sets < 64) {
    std::fprintf(stderr, "SMOKE FAILED: the gate needs >= 64 sets\n");
    return 1;
  }

  SetCatalog catalog;
  Status s = BuildCatalog(config, &catalog);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::string blob = catalog.Serialize();
  SetCatalog linear_catalog;
  SetCatalog per_filter_catalog;
  s = SetCatalog::Deserialize(blob, FilterRegistry::Global(), &linear_catalog);
  if (s.ok()) {
    s = SetCatalog::Deserialize(blob, FilterRegistry::Global(),
                                &per_filter_catalog);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "error: catalog copy: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<std::string> queries = MakeQueries(config);

  MultiSetIndexOptions index_options;
  index_options.batch_size = config.batch_size;
  std::unique_ptr<MultiSetIndex> index;
  s = MultiSetIndex::Build(&catalog, index_options, &index);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  MultiSetIndexOptions scan_options = index_options;
  scan_options.force_scan = true;
  std::unique_ptr<MultiSetIndex> linear;
  s = MultiSetIndex::Build(&linear_catalog, scan_options, &linear);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const MultiSetIndex::Stats shape = index->stats();
  std::fprintf(stderr,
               "# %zu sets: %zu slice(s) (%zu cuckoo) of %zu sliced set(s), "
               "%zu scan set(s), %zu index bytes\n",
               shape.sets, shape.slices, shape.cuckoo_slices,
               shape.sliced_sets, shape.scan_sets, shape.memory_bytes);

  std::printf("mode,sets,queries,seconds,kqps,probes,speedup_vs_linear\n");
  JsonReport report("multiset_throughput");

  // Warm-up passes force lazy state out of the timed loops.
  {
    SetIdRows warm;
    std::vector<std::string> warm_keys = {queries.front()};
    index->WhichSetsBatch(warm_keys, &warm);
    linear->WhichSetsBatch(warm_keys, &warm);
  }
  RunResult per_filter =
      RunPerFilter(per_filter_catalog, queries, config.chunk);
  RunResult linear_result = RunIndex(*linear, queries, config.chunk);
  RunResult index_result = RunIndex(*index, queries, config.chunk);
  EmitRow(config, "per_filter", per_filter, linear_result.seconds, &report);
  EmitRow(config, "linear", linear_result, linear_result.seconds, &report);
  EmitRow(config, "index", index_result, linear_result.seconds, &report);

  s = report.WriteToFile(config.json_path);
  if (!s.ok()) {
    std::fprintf(stderr, "error: --json: %s\n", s.ToString().c_str());
    return 1;
  }

  if (!config.smoke) return 0;

  // ---- smoke gates -------------------------------------------------------
  bool ok = true;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (index_result.answers[q] != linear_result.answers[q] ||
        index_result.answers[q] != per_filter.answers[q]) {
      std::fprintf(stderr,
                   "SMOKE FAILED: index/linear/per_filter answers diverge "
                   "at key %zu\n",
                   q);
      ok = false;
      break;
    }
  }
  if (ok && (shape.slices == shape.cuckoo_slices ||
             shape.cuckoo_slices == 0 || shape.scan_sets == 0)) {
    std::fprintf(stderr, "SMOKE FAILED: the mixed workload must exercise "
                         "a SetSlice, a CuckooSlice and the scan\n");
    ok = false;
  }
  if (ok && !VerifyServerWhichSets(blob, config, queries,
                                   index_result.answers)) {
    ok = false;
  }
  if (ok && index_result.seconds >= linear_result.seconds) {
    std::fprintf(stderr,
                 "SMOKE FAILED: the index (%.4fs) must beat the linear scan "
                 "(%.4fs) on the default workload\n",
                 index_result.seconds, linear_result.seconds);
    ok = false;
  }
  if (ok) std::printf("# smoke OK\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace shbf

int main(int argc, char** argv) { return shbf::Main(argc, argv); }
