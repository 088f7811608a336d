// perfbench — the repo's served-query benchmark (see BENCHMARK.json).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--tracedir <dir>]
//   perfbench --selftest --workdir <dir>
//
// A run drives an in-process ShbfServer (default ServerOptions, epoll)
// over loopback from this one thread through kConnections pipelined
// connections, checks every answer against an in-process twin loaded from
// the served file, and prints every metric as "name value unit", the
// host-stamped report, and last one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run and reports the per-layer ledger. The exit code is nonzero
// on any wrong answer, failed frame or FPR over budget.
//
// --selftest runs every workload at tiny scale twice: with the true twin
// (must pass) and with a twin built from another seed's keys (must be
// caught). It proves the oracle can see a wrong answer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/json_report.h"
#include "engine/batch_query_engine.h"
#include "driver.h"
#include "ledger.h"
#include "server/client.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;   ///< scratch files of this run
  std::string tracedir;  ///< where the traced run writes its spans
  uint64_t twin_seed = 1;  ///< != seed only in the self-test
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  std::vector<Metric> e2e;    ///< printed, and the JSON of --trace 0
  std::vector<Metric> layer;  ///< printed, and the JSON of --trace 1
  std::vector<Metric> info;   ///< printed only
  std::string trace_path;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0 : (n % 2 ? values[n / 2]
                             : (values[n / 2 - 1] + values[n / 2]) / 2);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double CpuNsPerKey(const DriveResult& result) {
  return Ratio(result.cpu_seconds * 1e9, static_cast<double>(result.keys));
}

/// Runs the served load for `seconds`. Read-only workloads cycle through
/// their schedule; mixed_rw runs whole passes and RELOADs the preloaded
/// file between them, so every pass starts from the same filter. After a
/// RELOAD a few untimed read frames (which change no state) warm the
/// reloaded filter's cache lines again.
DriveResult Serve(const Options& options, Served* served,
                  shbf::ShbfClient* control, const Pool& pool,
                  double seconds, Tracer* tracer) {
  const WorkloadSpec& spec = *options.spec;
  if (spec.add_every == 0) {
    return Drive(served->fds, pool.schedule, spec.window, seconds, tracer);
  }
  std::vector<std::vector<const Frame*>> rewarm(pool.schedule.size());
  for (size_t c = 0; c < rewarm.size(); ++c) {
    for (const Frame* frame : pool.schedule[c]) {
      if (!frame->is_add && rewarm[c].size() < 2 * spec.window) {
        rewarm[c].push_back(frame);
      }
    }
  }
  DriveResult total;
  while (true) {
    total.Merge(Drive(served->fds, pool.schedule, spec.window, 0, tracer));
    if (total.seconds >= seconds || !total.first_error.empty()) break;
    shbf::Status st = control->Reload(kServeName, "");
    if (!st.ok()) {
      total.first_error = "RELOAD: " + st.ToString();
      break;
    }
    DriveResult warm = Drive(served->fds, rewarm, spec.window, 0, nullptr);
    total.frames_attempted += warm.frames_attempted;
    total.frames_failed += warm.frames_failed;
    total.mismatches += warm.mismatches;
    if (total.first_error.empty()) total.first_error = warm.first_error;
  }
  return total;
}

void Account(const DriveResult& result, Outcome* out) {
  out->attempted += result.frames_attempted;
  out->failed += result.frames_failed;
  if (result.frames_failed != 0 || result.mismatches != 0) {
    out->Fail(result.first_error);
  }
}

/// mixed_rw after its last pass: every added key answers 1, STATS counts
/// preload + added, and every pool answer equals the final twin's.
void CheckFinalState(const WorkloadSpec& spec, shbf::ShbfClient* control,
                     const Pool& pool, Outcome* out) {
  uint64_t added = 0;
  std::vector<uint8_t> answers;
  for (const Frame& frame : pool.adds) {
    added += frame.keys.size();
    if (!control->Query(kServeName, frame.keys, &answers).ok() ||
        std::count(answers.begin(), answers.end(), 1) !=
            static_cast<ptrdiff_t>(frame.keys.size())) {
      out->Fail("an added key does not answer 1 after the run");
    }
  }
  shbf::ShbfClient::FilterInfo info;
  if (!control->Stats(kServeName, &info).ok() ||
      info.elements != spec.members + added) {
    out->Fail("STATS reports " + std::to_string(info.elements) +
              " elements, expected preload + added = " +
              std::to_string(spec.members + added));
  }
  for (const Frame& frame : pool.reads) {
    if (!control->Query(kServeName, frame.keys, &answers).ok() ||
        answers != frame.hi) {
      out->Fail("read frame " + std::to_string(frame.pool_index) +
                ": final answers differ from the final twin");
    }
  }
}

/// Measures the served FPR: queries `count` absent keys over the control
/// connection, requires every answer to equal the oracle's, and counts
/// false positives (for the catalog: spurious set ids). `*probes` gets the
/// absent-key probes (x sets for the catalog).
uint64_t SweepAbsent(const WorkloadSpec& spec, uint64_t seed,
                     const shbf::MembershipFilter* oracle,
                     const shbf::MultiSetIndex* index,
                     shbf::ShbfClient* control, size_t count,
                     uint64_t* probes, Outcome* out) {
  constexpr size_t kFrameKeys = 4096;
  // Indices past any the pool draws, so sweep keys are fresh.
  constexpr uint64_t kFirst = uint64_t{1} << 40;
  const shbf::BatchQueryEngine engine;
  std::vector<std::string> keys;
  uint64_t positives = 0;
  *probes = 0;
  for (size_t begin = 0; begin < count && out->correct; begin += kFrameKeys) {
    keys.clear();
    for (size_t i = begin; i < std::min(count, begin + kFrameKeys); ++i) {
      keys.push_back(AbsentKey(seed, kFirst + i));
    }
    bool same = false;
    if (index != nullptr) {
      std::vector<std::vector<uint32_t>> remote;
      std::vector<shbf::SetIdBitmap> local;
      index->WhichSetsBatch(keys, &local);
      same = control->WhichSets(keys, &remote).ok();
      for (size_t i = 0; same && i < keys.size(); ++i) {
        same = remote[i] == local[i].ToIds();
        positives += remote[i].size();
      }
      *probes += keys.size() * spec.sets;
    } else {
      std::vector<uint8_t> remote;
      std::vector<uint8_t> local;
      engine.ContainsBatch(*oracle, keys, &local);
      same = control->Query(kServeName, keys, &remote).ok() && remote == local;
      positives += std::count(remote.begin(), remote.end(), 1);
      *probes += keys.size();
    }
    if (!same) out->Fail("absent-key sweep: answers differ from the oracle");
  }
  return positives;
}

/// Reads the served geometry: stored keys and memory in bytes.
void ReadGeometry(const WorkloadSpec& spec, const Twin& twin,
                  shbf::ShbfClient* control, uint64_t* keys,
                  uint64_t* bytes, Outcome* out) {
  if (spec.storage == Storage::kCatalog) {
    shbf::ShbfClient::MultisetInfo info;
    if (!control->MultisetList(&info).ok()) return out->Fail("MULTISET_LIST");
    *keys = 0;
    for (const auto& set : info.sets) *keys += set.elements;
    *bytes = twin.catalog.memory_bytes() + info.summary_memory_bytes;
    return;
  }
  shbf::ShbfClient::FilterInfo info;
  if (!control->Stats(kServeName, &info).ok()) return out->Fail("STATS");
  *keys = info.elements;
  *bytes = info.memory_bytes;
}

/// The per-layer ledger of the traced run (see ledger.h).
void TracedRun(const Options& options, Served* served,
               shbf::ShbfClient* control, const Twin& twin, const Pool& pool,
               const SetupTimes& setup, Outcome* out) {
  const WorkloadSpec& spec = *options.spec;
  const bool catalog = spec.storage == Storage::kCatalog;
  const double window_s = options.seconds / 3;

  const DriveResult untraced =
      Serve(options, served, control, pool, window_s, nullptr);
  Account(untraced, out);

  Tracer tracer;
  shbf::ShbfClient::ServerMetrics before, after;
  if (!control->Metrics(&before).ok()) out->Fail("METRICS");
  const DriveResult traced =
      Serve(options, served, control, pool, window_s, &tracer);
  if (!control->Metrics(&after).ok()) out->Fail("METRICS");
  Account(traced, out);

  const Replay replay = ReplayLayers(spec, twin, pool, &tracer);
  const auto layers = tracer.SelfTimes();
  auto ns_per_key = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0
                              : Ratio(it->second.self_ns, it->second.keys);
  };
  auto hist = [&](const std::string& name) {
    return HistogramDelta(before.snapshot, after.snapshot, name);
  };
  auto counter = [&](const std::string& name) {
    return static_cast<double>(
        CounterDelta(before.snapshot, after.snapshot, name));
  };

  const auto queue = hist("server.queue_wait_us");
  const auto handle =
      hist(catalog ? "server.handle_us.which_sets" : "server.handle_us.query");
  const double client_p50 = Quantile(traced.read_us, 0.50);
  auto self_ns = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ns;
  };
  // The replayed server-side work of the handled frames, against the
  // server's own handle time for the same opcode.
  const double served_ns = self_ns("protocol.decode") +
                           self_ns(catalog ? "multiset" : "engine") +
                           self_ns("protocol.answer");
  const double handle_mean_us =
      Ratio(static_cast<double>(handle.sum), handle.count);

  out->layer = {
      {"server.queue_wait_us.p50", queue.Quantile(0.50), "us"},
      {"server.queue_wait_us.p99", queue.Quantile(0.99), "us"},
      {"server.handle_us.read.p50", handle.Quantile(0.50), "us"},
      {"server.handle_us.read.p99", handle.Quantile(0.99), "us"},
      {"server.wire_us.p50",
       client_p50 - queue.Quantile(0.50) - handle.Quantile(0.50), "us"},
      {"server.backpressure_engaged_total",
       counter("server.backpressure_engaged_total"), "count"},
      {"protocol.decode_ns_per_key", ns_per_key("protocol.decode"), "ns/key"},
      {"protocol.encode_ns_per_key", ns_per_key("protocol.encode"), "ns/key"},
      {"protocol.answer_ns_per_key", ns_per_key("protocol.answer"), "ns/key"},
      {"protocol.answer_bytes_per_key",
       Ratio(static_cast<double>(replay.answer_bytes), replay.keys),
       "bytes/key"},
      {"engine.ns_per_key", ns_per_key("engine"), "ns/key"},
      {"engine.fastpath_frac",
       Ratio(counter("engine.fastpath_batches_total"),
             counter("engine.batches_total")),
       "ratio"},
      {"filter.contains_ns", ns_per_key("filter.contains"), "ns/key"},
      {"filter.add_ns", AddNsPerKey(spec, options.seed), "ns/key"},
      {"hash.ns_per_key", ns_per_key("hash"), "ns/key"},
      {"storage.save_s", setup.save, "s"},
      {"storage.load_s", setup.load, "s"},
      {"multiset.probes_per_key",
       Ratio(static_cast<double>(replay.multiset_probes), replay.keys),
       "count"},
      {"multiset.pruned_frac",
       Ratio(static_cast<double>(replay.multiset_pruned),
             static_cast<double>(replay.multiset_probes_total)),
       "ratio"},
      {"sharded.shard_batch_keys.p99",
       hist("sharded.shard_batch_keys").Quantile(0.99), "keys"},
      {"ledger.unaccounted_frac",
       1 - Ratio(served_ns / 1000, handle_mean_us * replay.frames), "ratio"},
      {"trace.overhead_frac",
       Ratio(CpuNsPerKey(traced), CpuNsPerKey(untraced)) - 1, "ratio"},
  };
  // Layers only some workloads run; printed, not part of the JSON.
  if (spec.add_every != 0) {
    out->info.push_back({"server.handle_us.add.p99",
                         hist("server.handle_us.add").Quantile(0.99), "us"});
  }
  if (layers.count("sharded")) {
    out->info.push_back({"sharded.ns_per_key", ns_per_key("sharded"),
                         "ns/key"});
  }
  if (catalog) {
    out->info.push_back({"multiset.ns_per_key", ns_per_key("multiset"),
                         "ns/key"});
    out->info.push_back({"multiset.build_s", twin.index_build_s, "s"});
  }
  out->info.push_back({"ledger.replayed_frames",
                       static_cast<double>(replay.frames), "frames"});

  std::error_code ec;
  std::filesystem::create_directories(options.tracedir, ec);
  out->trace_path = options.tracedir + "/trace-" + spec.name + ".jsonl";
  shbf::Status st = tracer.WriteJson(out->trace_path);
  if (!st.ok()) out->Fail(st.ToString());
}

/// Served instances a run measures in turn, each for an equal share of the
/// timed window, with fresh threads and memory: the luck of placement
/// varies inside a run, and the medians below absorb it.
constexpr int kRounds = 3;

/// Sub-windows per round. `cpu_ns_per_key` is the median over the
/// sub-windows of all rounds, so one disturbed sub-window cannot move it.
constexpr int kWindows = 5;

Outcome RunWorkload(const Options& options) {
  const WorkloadSpec& spec = *options.spec;
  Outcome out;
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  const bool once = options.trace || options.tiny;
  const int rounds = once ? 1 : kRounds;

  std::vector<double> setup_cpu, setup_wall;
  double setup_total = 0;
  SetupTimes times;
  std::unique_ptr<Served> served;
  auto set_up = [&] {
    served.reset();
    served = std::make_unique<Served>();
    const double cpu_start = ProcessCpuSeconds();
    shbf::Status st =
        SetUp(spec, options.seed, options.workdir, served.get(), &times);
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return false;
    }
    setup_cpu.push_back(ProcessCpuSeconds() - cpu_start);
    setup_wall.push_back(times.total);
    setup_total += times.total;
    return true;
  };

  Twin twin;
  Twin final_twin;
  Pool pool;
  shbf::ShbfClient control;
  uint64_t stored_keys = 0;
  uint64_t memory_bytes = 0;
  DriveResult timed;
  std::vector<double> window_kps, window_cpu;
  for (int round = 0; round < rounds; ++round) {
    control.Close();
    if (!set_up()) return out;
    shbf::Status st = control.Connect("127.0.0.1", served->server->port());
    if (st.ok() && round == 0) {
      st = MakeTwin(spec, options.seed, options.twin_seed, served->path,
                    options.workdir, &twin);
      if (st.ok() && spec.add_every != 0) {
        st = MakeTwin(spec, options.seed, options.twin_seed, served->path,
                      options.workdir, &final_twin);
      }
      if (st.ok()) {
        st = BuildPool(spec, options.seed, twin, final_twin.filter.get(),
                       &pool);
      }
      if (st.ok()) {
        ReadGeometry(spec, twin, &control, &stored_keys, &memory_bytes, &out);
      }
    }
    if (!st.ok()) {
      out.Fail("oracle: " + st.ToString());
      return out;
    }

    // Warm-up: caches fill and lazy set-up finishes outside the timed
    // window.
    const DriveResult warm_up = Serve(options, served.get(), &control, pool,
                                      options.seconds / 10 / rounds, nullptr);
    Account(warm_up, &out);
    if (spec.add_every != 0 && !control.Reload(kServeName, "").ok()) {
      out.Fail("RELOAD after warm-up");
    }
    if (!out.correct) return out;

    if (options.trace) {
      TracedRun(options, served.get(), &control, twin, pool, times, &out);
      continue;
    }
    const double window_s = options.seconds / rounds / kWindows;
    for (int w = 0; w < kWindows && out.correct; ++w) {
      const DriveResult window = Serve(options, served.get(), &control, pool,
                                       window_s, nullptr);
      Account(window, &out);
      window_kps.push_back(Ratio(window.keys, window.seconds));
      window_cpu.push_back(CpuNsPerKey(window));
      timed.Merge(window);
    }
  }

  uint64_t fpr_keys = stored_keys;
  const shbf::MembershipFilter* oracle = twin.filter.get();
  if (spec.add_every != 0) {
    if (out.correct) CheckFinalState(spec, &control, pool, &out);
    fpr_keys += pool.adds.size() * spec.frame_keys;
    oracle = final_twin.filter.get();
  }
  const bool catalog = spec.storage == Storage::kCatalog;
  const size_t sweep = (catalog ? size_t{1} << 18 : size_t{1} << 21) >>
                       (options.tiny ? 4 : 0);
  uint64_t absent = 0;
  const uint64_t false_positives =
      SweepAbsent(spec, options.seed, oracle, twin.index.get(), &control,
                  sweep, &absent, &out);
  const double fpr = Ratio(static_cast<double>(false_positives), absent);
  const double theory = TheoryFpr(spec, twin, fpr_keys);
  // The repo's FPR budget: 2x the analytic rate plus a sampling floor.
  const double budget = 2 * theory + 8.0 / static_cast<double>(absent);
  if (fpr > budget) {
    out.Fail("measured FPR " + std::to_string(fpr) + " exceeds the budget " +
             std::to_string(budget));
  }

  // Cheap set-ups repeat beyond the rounds' own while they take under a
  // second in all, so setup_s is the median of many.
  control.Close();
  while (!once && out.correct && setup_total < 1.0 && setup_cpu.size() < 25) {
    if (!set_up()) return out;
  }
  served.reset();

  out.info.push_back({"fpr_theory", theory, "ratio"});
  out.info.push_back({"fpr_absent_probes", static_cast<double>(absent),
                      "probes"});
  if (!options.trace) {
    const double error_frac =
        Ratio(static_cast<double>(out.failed), out.attempted);
    out.e2e = {
        {"cpu_ns_per_key", Median(window_cpu), "ns/key"},
        {"fpr", fpr, "ratio"},
        {"filter_bits_per_key",
         Ratio(static_cast<double>(memory_bytes) * 8, stored_keys), "bits"},
        {"setup_s", Median(setup_cpu), "s"},
    };
    // Wall-clock figures: what a client sees, but on a shared host they
    // follow the neighbours' load as much as the code.
    out.info.push_back({"keys_per_s", Median(window_kps), "keys/s"});
    out.info.push_back(
        {"frame_p50_us", Quantile(timed.read_us, 0.50), "us"});
    out.info.push_back(
        {"frame_p99_us", Quantile(timed.read_us, 0.99), "us"});
    out.info.push_back({"setup_wall_s", Median(setup_wall), "s"});
    out.info.push_back({"setup_runs", static_cast<double>(setup_cpu.size()),
                        "count"});
    for (int w = 0; w < static_cast<int>(window_kps.size()); ++w) {
      out.info.push_back({"window" + std::to_string(w) + ".cpu_ns_per_key",
                          window_cpu[w], "ns/key"});
      out.info.push_back({"window" + std::to_string(w) + ".keys_per_s",
                          window_kps[w], "keys/s"});
    }
    out.info.push_back({"frame_samples",
                        static_cast<double>(timed.read_us.size()), "frames"});
    if (spec.add_every != 0) {
      out.info.push_back(
          {"add_p99_us", Quantile(timed.add_us, 0.99), "us"});
      out.info.push_back({"add_samples",
                          static_cast<double>(timed.add_us.size()), "frames"});
    }
    out.info.push_back({"error_frac", error_frac, "ratio"});
    // p99 needs at least 10 samples beyond it.
    if (!options.tiny && timed.read_us.size() < 1000) {
      out.Fail("only " + std::to_string(timed.read_us.size()) +
               " read frames timed; p99 needs >= 1000");
    }
  }
  return out;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Print(const Options& options, const Outcome& out) {
  const std::vector<Metric>& reported = options.trace ? out.layer : out.e2e;
  shbf::JsonReport report("perfbench");
  shbf::JsonRow& row = report.AddRow();
  row.Set("workload", options.spec->name)
      .Set("seed", options.seed)
      .Set("seconds", options.seconds)
      .Set("trace", uint64_t{options.trace});
  for (const auto* list : {&reported, &out.info}) {
    for (const Metric& m : *list) {
      std::printf("%-34s %-22s %s\n", m.name.c_str(),
                  FormatNumber(m.value).c_str(), m.unit.c_str());
      row.Set(m.name, m.value);
    }
  }
  if (!out.trace_path.empty()) {
    std::printf("# spans written to %s\n", out.trace_path.c_str());
  }
  if (!out.correct) std::printf("# FAILED: %s\n", out.error.c_str());
  std::printf("%s", report.Render().c_str());

  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            FormatNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int SelfTest(const std::string& workdir) {
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec tiny = TinyScale(*FindWorkload(name));
    Options options;
    options.spec = &tiny;
    options.seed = 7;
    options.seconds = 0.2;
    options.workdir = workdir;
    options.tiny = true;
    options.twin_seed = options.seed;
    const Outcome good = RunWorkload(options);
    options.twin_seed = options.seed + 1;
    const Outcome wrong = RunWorkload(options);
    const bool pass = good.correct && !wrong.correct;
    ok &= pass;
    std::printf("selftest %-13s %s  true twin: %s; wrong-seed twin: %s\n",
                name.c_str(), pass ? "ok  " : "FAIL",
                good.correct ? "passed" : good.error.c_str(),
                wrong.correct ? "NOT CAUGHT" : wrong.error.c_str());
  }
  std::printf("selftest %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--tracedir <dir>]\n"
               "       perfbench --selftest --workdir <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.spec = FindWorkload(value);
      if (options.spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value);
        return 2;
      }
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--tracedir") {
      options.tracedir = value;
    } else {
      return Usage();
    }
  }
  if (options.workdir.empty()) return Usage();
  if (options.tracedir.empty()) options.tracedir = options.workdir;
  if (selftest) return SelfTest(options.workdir);
  if (options.spec == nullptr || !(options.seconds > 0)) return Usage();
  options.twin_seed = options.seed;
  const Outcome out = RunWorkload(options);
  Print(options, out);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
