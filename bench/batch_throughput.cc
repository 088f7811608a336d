// batch_throughput — single-key vs engine-batched vs sharded-multithreaded
// membership throughput (Mops/s), the acceptance bench for the batched
// query engine (docs/benchmarks.md describes the output).
//
// Three modes per filter:
//   per_key     one virtual Contains call per key — what registry-driven
//               code did before the engine existed
//   batched     BatchQueryEngine::ContainsBatch — hash pre-compute +
//               software prefetch + two-pass resolve
//   sharded_mt  a shards-way ShardedMembershipFilter queried from
//               `threads` threads, each batching its slice
//
// After the throughput modes, each split-block variant's FPR is measured
// against its unblocked base at equal bits/key (fpr rows), and two
// acceptance gates run:
//   - FPR gate: split-block FPR <= 2x the base FPR (+ sampling noise floor)
//   - speed gates, enforced when the run is at gate scale (>= 1M queries,
//     >= 8 MB filter); --no-speed-gate disables them (sanitizer builds time
//     nothing fairly):
//       split_block_shbf_m batched >= 1.35x shbf_m batched
//       split_block_shbf_m per_key > shbf_m per_key
//
// usage: bench_batch_throughput [--filter=<name>] [--build-keys=N]
//          [--query-keys=N] [--bits-per-key=B] [--k=K] [--batch=N]
//          [--shards=S] [--threads=T] [--chunk=N] [--json=<path>] [--smoke]
//          [--no-speed-gate]
//
// Defaults (8M build keys at 12 bits/key ≈ 12 MB of filter) size the filter
// past L2 so the memory-level parallelism the engine extracts is visible;
// --smoke shrinks everything for CI, widens the sweep to EVERY registered
// filter, and verifies the batched answers against the per-key path
// instead of chasing Mops.
//
// CSV on stdout: filter,mode,threads,batch_size,keys,seconds,mops,speedup.
// --json=<path> writes machine-readable rows (workload, keys/s, p50/p99
// latency per `chunk`-key slice) via bench_util/json_report.h.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "bench_util/json_report.h"
#include "bench_util/timer.h"
#include "engine/batch_query_engine.h"
#include "engine/sharded_filter.h"

namespace shbf {
namespace {

struct Config {
  std::string filter_name;  // empty = the default pair {shbf_m, bloom}
  size_t build_keys = 8000000;
  size_t query_keys = 1000000;
  double bits_per_key = 12.0;
  uint32_t num_hashes = 8;
  uint32_t batch_size = 32;
  uint32_t shards = 8;
  uint32_t threads = 4;
  /// Keys per latency sample for the --json report.
  size_t chunk = 4096;
  std::string json_path;
  bool smoke = false;
  /// Disables the throughput gates (sanitizer CI times nothing fairly).
  bool no_speed_gate = false;
};

/// What Main needs back from a filter's run to evaluate the cross-filter
/// gates.
struct FilterRun {
  double per_key_mops = 0;
  double batched_mops = 0;
  size_t filter_bytes = 0;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

FilterSpec SpecFor(const Config& config) {
  FilterSpec spec = FilterSpec::ForKeys(config.build_keys,
                                        config.bits_per_key,
                                        config.num_hashes);
  spec.max_count = 8;
  spec.batch_size = config.batch_size;
  return spec;
}

void EmitRow(const std::string& filter, const char* mode, uint32_t threads,
             uint32_t batch, size_t keys, double seconds, double per_key_mops,
             const Config& config, const LatencyRecorder& latencies,
             JsonReport* report) {
  const double mops = Mops(keys, seconds);
  std::printf("%s,%s,%u,%u,%zu,%.4f,%.2f,%.2f\n", filter.c_str(), mode,
              threads, batch, keys, seconds, mops,
              per_key_mops > 0 ? mops / per_key_mops : 1.0);
  report->AddRow()
      .Set("workload", "membership/" + filter)
      .Set("mode", mode)
      .Set("threads", uint64_t{threads})
      .Set("batch_size", uint64_t{batch})
      .Set("keys", uint64_t{keys})
      .Set("chunk_keys", uint64_t{config.chunk})
      .Set("keys_per_s", seconds > 0 ? keys / seconds : 0.0)
      .Set("p50_us", latencies.PercentileSeconds(50) * 1e6)
      .Set("p99_us", latencies.PercentileSeconds(99) * 1e6);
}

/// Benchmarks one registered filter through the three modes. Returns false
/// on a smoke-mode correctness divergence.
bool RunFilter(const std::string& name, const Config& config,
               const std::vector<std::string>& build_keys,
               const std::vector<std::string>& query_keys,
               JsonReport* report, FilterRun* run) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  Status s = registry.Create(name, SpecFor(config), &filter);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return false;
  }
  for (const auto& key : build_keys) filter->Add(key);
  filter->Contains(query_keys.front());  // force lazy builds out of the loop

  // Pre-sliced query stream: the timed loops below run slice by slice, so
  // one WallTimer read per `chunk` keys doubles as the latency sample.
  std::vector<std::vector<std::string>> slices_by_chunk;
  for (size_t begin = 0; begin < query_keys.size(); begin += config.chunk) {
    const size_t end = std::min(begin + config.chunk, query_keys.size());
    slices_by_chunk.emplace_back(query_keys.begin() + begin,
                                 query_keys.begin() + end);
  }

  // The timed modes below run best-of-kTimingReps (min wall time): on a
  // shared host a single pass can be stretched 2-3x by outside interference,
  // and the gates compare RATIOS of single passes — one stretched pass flips
  // a gate that the hardware passes. The minimum over a few passes is the
  // standard estimator for the interference-free cost. Smoke mode keeps one
  // pass: it checks identities, not speed.
  const int reps = config.smoke ? 1 : 3;

  // -- per_key: the scalar virtual baseline --------------------------------
  double per_key_seconds = 0;
  LatencyRecorder per_key_latencies;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer rep_timer;
    LatencyRecorder rep_latencies;
    uint64_t hits = 0;
    for (const auto& slice : slices_by_chunk) {
      WallTimer chunk_timer;
      for (const auto& key : slice) hits += filter->Contains(key);
      rep_latencies.Record(chunk_timer.ElapsedSeconds());
    }
    DoNotOptimize(hits);
    const double rep_seconds = rep_timer.ElapsedSeconds();
    if (rep == 0 || rep_seconds < per_key_seconds) {
      per_key_seconds = rep_seconds;
      per_key_latencies = rep_latencies;
    }
  }
  const double per_key_mops = Mops(query_keys.size(), per_key_seconds);
  EmitRow(name, "per_key", 1, 1, query_keys.size(), per_key_seconds, 0,
          config, per_key_latencies, report);

  // -- batched: the engine's two-pass prefetching path ---------------------
  BatchQueryEngine engine({.batch_size = config.batch_size});
  std::vector<uint8_t> results;
  engine.ContainsBatch(*filter, query_keys, &results);  // warm-up
  double batched_seconds = 0;
  LatencyRecorder batched_latencies;
  std::vector<uint8_t> slice_results;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer rep_timer;
    LatencyRecorder rep_latencies;
    results.clear();
    for (const auto& slice : slices_by_chunk) {
      WallTimer chunk_timer;
      engine.ContainsBatch(*filter, slice, &slice_results);
      rep_latencies.Record(chunk_timer.ElapsedSeconds());
      results.insert(results.end(), slice_results.begin(),
                     slice_results.end());
    }
    const double rep_seconds = rep_timer.ElapsedSeconds();
    if (rep == 0 || rep_seconds < batched_seconds) {
      batched_seconds = rep_seconds;
      batched_latencies = rep_latencies;
    }
  }
  EmitRow(name, "batched", 1, config.batch_size, query_keys.size(),
          batched_seconds, per_key_mops, config, batched_latencies, report);
  run->per_key_mops = per_key_mops;
  run->batched_mops = Mops(query_keys.size(), batched_seconds);
  run->filter_bytes = filter->memory_bytes();

  if (config.smoke) {
    // CI mode: the value of this binary is that the engine still answers
    // exactly like the per-key path; Mops on a shared runner prove nothing.
    for (size_t i = 0; i < query_keys.size(); ++i) {
      if ((results[i] != 0) != filter->Contains(query_keys[i])) {
        std::fprintf(stderr, "SMOKE FAILED (%s): divergence at key %zu\n",
                     name.c_str(), i);
        return false;
      }
    }
  }

  // -- sharded_mt: concurrent batched queries on the sharded wrapper ------
  if (config.shards < 2) {
    std::fprintf(stderr, "note: --shards < 2, skipping sharded_mt\n");
    return true;
  }
  FilterSpec sharded_spec = SpecFor(config);
  sharded_spec.shards = config.shards;
  std::unique_ptr<MembershipFilter> sharded;
  s = registry.Create(name, sharded_spec, &sharded);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return false;
  }
  static_cast<ShardedMembershipFilter*>(sharded.get())->AddBatch(build_keys);
  // Warm every shard (triggers lazy rebuilds) and pre-slice the query
  // stream per thread (chunked for latency samples), so the timed region
  // holds queries only.
  sharded->ContainsBatch(query_keys, &results);
  std::vector<std::vector<std::vector<std::string>>> slices(config.threads);
  const size_t slice = (query_keys.size() + config.threads - 1) /
                       config.threads;
  for (uint32_t t = 0; t < config.threads; ++t) {
    const size_t begin = std::min(t * slice, query_keys.size());
    const size_t end = std::min(begin + slice, query_keys.size());
    for (size_t b = begin; b < end; b += config.chunk) {
      slices[t].emplace_back(query_keys.begin() + b,
                             query_keys.begin() + std::min(b + config.chunk,
                                                           end));
    }
  }
  double sharded_seconds = 0;
  LatencyRecorder sharded_latencies;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<LatencyRecorder> thread_latencies(config.threads);
    WallTimer rep_timer;
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < config.threads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<uint8_t> thread_results;
        for (const auto& thread_slice : slices[t]) {
          WallTimer chunk_timer;
          sharded->ContainsBatch(thread_slice, &thread_results);
          thread_latencies[t].Record(chunk_timer.ElapsedSeconds());
          DoNotOptimize(thread_results.size());
        }
      });
    }
    for (auto& worker : workers) worker.join();
    const double rep_seconds = rep_timer.ElapsedSeconds();
    if (rep == 0 || rep_seconds < sharded_seconds) {
      sharded_seconds = rep_seconds;
      // Merge the per-thread samples into one distribution.
      sharded_latencies = LatencyRecorder();
      for (const auto& recorder : thread_latencies) {
        for (double sample : recorder.samples()) {
          sharded_latencies.Record(sample);
        }
      }
    }
  }
  EmitRow(name, "sharded_mt", config.threads, config.batch_size,
          query_keys.size(), sharded_seconds, per_key_mops, config,
          sharded_latencies, report);
  return true;
}

/// Measured false-positive rate of `name` at the run's bits/key: builds a
/// fresh filter over `build_keys` and queries `absent_keys` (disjoint by
/// construction). Returns a negative value on a create failure.
double MeasureFpr(const std::string& name, const Config& config,
                  const std::vector<std::string>& build_keys,
                  const std::vector<std::string>& absent_keys) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = FilterRegistry::Global().Create(name, SpecFor(config), &filter);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return -1.0;
  }
  for (const auto& key : build_keys) filter->Add(key);
  size_t positives = 0;
  for (const auto& key : absent_keys) positives += filter->Contains(key);
  return static_cast<double>(positives) / absent_keys.size();
}

/// The split-block FPR gate: measures base and variant at equal bits/key,
/// emits fpr rows, and fails if the variant's rate exceeds 2x the
/// base rate plus a sampling noise floor (a handful of extra positives must
/// not flunk a tiny --smoke sample).
bool CheckFprPair(const std::string& base, const std::string& variant,
                  const Config& config,
                  const std::vector<std::string>& build_keys,
                  const std::vector<std::string>& absent_keys,
                  JsonReport* report) {
  const double base_fpr = MeasureFpr(base, config, build_keys, absent_keys);
  const double variant_fpr =
      MeasureFpr(variant, config, build_keys, absent_keys);
  if (base_fpr < 0 || variant_fpr < 0) return false;
  const auto emit = [&](const std::string& name, double fpr) {
    std::printf("# fpr,%s,%.6f\n", name.c_str(), fpr);
    report->AddRow()
        .Set("workload", "fpr/" + name)
        .Set("mode", "fpr")
        .Set("keys", uint64_t{absent_keys.size()})
        .Set("fpr", fpr);
  };
  emit(base, base_fpr);
  emit(variant, variant_fpr);
  const double noise_floor = 8.0 / absent_keys.size();
  if (variant_fpr > 2.0 * base_fpr + noise_floor) {
    std::fprintf(stderr,
                 "GATE FAILED: %s FPR %.6f exceeds 2x %s FPR %.6f\n",
                 variant.c_str(), variant_fpr, base.c_str(), base_fpr);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strcmp(argv[i], "--no-speed-gate") == 0) {
      config.no_speed_gate = true;
    } else if (ParseFlag(argv[i], "filter", &value)) {
      config.filter_name = value;
    } else if (ParseFlag(argv[i], "build-keys", &value)) {
      config.build_keys = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "query-keys", &value)) {
      config.query_keys = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "bits-per-key", &value)) {
      config.bits_per_key = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "k", &value)) {
      config.num_hashes = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "batch", &value)) {
      config.batch_size = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "shards", &value)) {
      config.shards = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "threads", &value)) {
      config.threads = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "chunk", &value)) {
      config.chunk = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "json", &value)) {
      config.json_path = value;
    } else {
      std::fprintf(stderr,
                   "usage: bench_batch_throughput [--filter=<name>] "
                   "[--build-keys=N] [--query-keys=N] [--bits-per-key=B] "
                   "[--k=K] [--batch=N] [--shards=S] [--threads=T] "
                   "[--chunk=N] [--json=<path>] [--smoke] "
                   "[--no-speed-gate]\n");
      return 2;
    }
  }
  if (config.smoke) {
    config.build_keys = 20000;
    config.query_keys = 10000;
    config.threads = 2;
  }
  if (config.build_keys == 0 || config.query_keys == 0 ||
      config.threads == 0 || config.chunk == 0) {
    std::fprintf(stderr,
                 "error: --build-keys, --query-keys, --threads and --chunk "
                 "must be positive\n");
    return 2;
  }

  std::vector<std::string> build_keys(config.build_keys);
  for (size_t i = 0; i < config.build_keys; ++i) {
    build_keys[i] = "key-" + std::to_string(i);
  }
  // Query stream: inserted keys in random order (members exercise every
  // probe; random order defeats the hardware prefetcher, as production
  // traffic does).
  std::vector<std::string> query_keys(config.query_keys);
  std::mt19937_64 rng(0xbe9c4);
  for (size_t i = 0; i < config.query_keys; ++i) {
    query_keys[i] = build_keys[rng() % build_keys.size()];
  }

  std::printf("filter,mode,threads,batch_size,keys,seconds,mops,"
              "speedup_vs_per_key\n");
  std::vector<std::string> names;
  if (!config.filter_name.empty()) {
    names.push_back(config.filter_name);
  } else if (config.smoke) {
    // CI sweeps every registered variant through the identity checks.
    names = FilterRegistry::Global().Names();
  } else {
    names = {"shbf_m", "bloom", "split_block_shbf_m", "split_block_bloom"};
  }
  bool ok = true;
  JsonReport report("batch_throughput");
  std::map<std::string, FilterRun> runs;
  for (const auto& name : names) {
    ok = RunFilter(name, config, build_keys, query_keys, &report,
                   &runs[name]) &&
         ok;
  }

  // FPR gate: each split-block variant against its unblocked base at equal
  // bits/key, on a key set disjoint from the build keys. The sample stays
  // large even in smoke mode — at ~0.3% FPR a 10k sample's noise swamps
  // the 2x ratio the gate checks.
  const size_t absent_count = config.smoke ? 100000 : 200000;
  std::vector<std::string> absent_keys(absent_count);
  for (size_t i = 0; i < absent_count; ++i) {
    absent_keys[i] = "absent-" + std::to_string(i);
  }
  const auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  // Confining every probe to one sub-word of one block costs accuracy; the
  // budget is 2x the unblocked base.
  if (has("bloom") && has("split_block_bloom")) {
    ok = CheckFprPair("bloom", "split_block_bloom", config, build_keys,
                      absent_keys, &report) &&
         ok;
  }
  if (has("shbf_m") && has("split_block_shbf_m")) {
    ok = CheckFprPair("shbf_m", "split_block_shbf_m", config, build_keys,
                      absent_keys, &report) &&
         ok;
  }

  // Speed gates: at gate scale (>= 1M queries against >= 8 MB of filter,
  // where memory stalls dominate), the split-block layout must pay for
  // itself against the plain shbf_m fast path, both batched (1.35x: one
  // line fetch and one block subset test per key against k/2 windows
  // spread over the array) and per key (strictly faster — baking the mask at
  // probe time is what makes even the unbatched query cheap).
  if (!config.no_speed_gate && has("shbf_m") && has("split_block_shbf_m")) {
    const FilterRun& plain = runs["shbf_m"];
    const FilterRun& split = runs["split_block_shbf_m"];
    const bool at_gate_scale = config.query_keys >= 1000000 &&
                               plain.filter_bytes >= 8u << 20;
    if (at_gate_scale && plain.batched_mops > 0) {
      const double ratio = split.batched_mops / plain.batched_mops;
      std::printf("# speed_gate,split_block_shbf_m_vs_shbf_m,%.2fx\n", ratio);
      if (ratio < 1.35) {
        std::fprintf(stderr,
                     "GATE FAILED: split_block_shbf_m batched %.2f Mops is "
                     "only %.2fx shbf_m's %.2f Mops (need 1.35x)\n",
                     split.batched_mops, ratio, plain.batched_mops);
        ok = false;
      }
    }
    if (at_gate_scale && plain.per_key_mops > 0) {
      const double ratio = split.per_key_mops / plain.per_key_mops;
      std::printf("# speed_gate,split_block_shbf_m_per_key_vs_shbf_m,%.2fx\n",
                  ratio);
      if (ratio <= 1.0) {
        std::fprintf(stderr,
                     "GATE FAILED: split_block_shbf_m per_key %.2f Mops does "
                     "not beat shbf_m's %.2f Mops\n",
                     split.per_key_mops, plain.per_key_mops);
        ok = false;
      }
    }
  }

  Status json_status = report.WriteToFile(config.json_path);
  if (!json_status.ok()) {
    std::fprintf(stderr, "error: --json: %s\n",
                 json_status.ToString().c_str());
    ok = false;
  }
  if (config.smoke && ok) std::printf("# smoke OK\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace shbf

int main(int argc, char** argv) { return shbf::Main(argc, argv); }
