// shbf_cli — command-line front end for building, shipping and querying any
// filter in the registry from key files (one key per line).
//
//   shbf_cli list
//       prints every registered filter name with family and description.
//   shbf_cli build  <keys.txt> <filter.shbf> [--filter=shbf_m]
//                   [--bits-per-key=12] [--k=8] [--seed=N]
//       builds the named filter over the keys and writes the envelope blob.
//   shbf_cli query  <filter.shbf> <keys.txt>
//       prints "<key>\t<0|1>" per line plus a positives summary.
//   shbf_cli info   <filter.shbf>
//       prints the filter's registry name, family and footprint.
//   shbf_cli selftest [--filter=<name>]
//       end-to-end build → serialize → reload → query round trip through a
//       temp file, for one filter or (default) every registered filter; used
//       by ctest.
//   shbf_cli bench [--filter=shbf_m] [--keys=1000000] [--bits-per-key=12]
//                  [--k=8] [--batch=32] [--shards=8] [--threads=4]
//       in-process membership throughput: per-key virtual Contains vs the
//       batched query engine vs a sharded filter queried from T threads
//       (bench/batch_throughput.cc is the bigger, CSV-emitting sibling).
//   shbf_cli --filter=<name>
//       shorthand for `selftest --filter=<name>`.
//   shbf_cli multiset build <catalog.shbc> <set>=<keys.txt> ...
//   shbf_cli multiset query <catalog.shbc> <keys.txt> [--scan]
//   shbf_cli multiset stats <catalog.shbc>
//       the multi-set subsystem (docs/multiset.md): build a SetCatalog of
//       named sets, answer "which sets contain key k" through the
//       MultiSetIndex (or the brute-force scan with --scan), and inspect a
//       catalog's index shape.
//   shbf_cli remote <host:port> <op> ...
//       drives a running shbf_server over the wire protocol
//       (docs/serving.md): list, stats, query (--count), add, remove,
//       snapshot, reload, which-sets, index-add, index-drop,
//       multiset-list.
//   shbf_cli --help | --version
//
// Legacy blobs written by older versions (raw ShbfM/BloomFilter wire format,
// no registry envelope) are still readable by query/info.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "baselines/bloom_filter.h"
#include "bench_util/timer.h"
#include "core/file_io.h"
#include "core/serde.h"
#include "core/version.h"
#include "engine/batch_query_engine.h"
#include "engine/sharded_filter.h"
#include "multiset/multi_set_index.h"
#include "server/client.h"
#include "shbf/shbf_membership.h"

namespace shbf {
namespace {

struct Options {
  double bits_per_key = 12.0;
  uint32_t num_hashes = 8;
  std::string filter_name = "shbf_m";
  uint64_t seed = kDefaultSeed;
};

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage:\n"
      "  shbf_cli list\n"
      "  shbf_cli build <keys.txt> <filter.shbf> [--filter=<name>] "
      "[--bits-per-key=12] [--k=8] [--seed=N]\n"
      "  shbf_cli query <filter.shbf> <keys.txt>\n"
      "  shbf_cli info  <filter.shbf>\n"
      "  shbf_cli selftest [--filter=<name>]\n"
      "  shbf_cli bench [--filter=<name>] [--keys=N] [--bits-per-key=12] "
      "[--k=8]\n"
      "                 [--batch=32] [--shards=8] [--threads=4]\n"
      "  shbf_cli multiset build <catalog.shbc> <set>=<keys.txt> ...\n"
      "                 [--filter=shbf_m] [--bits-per-key=64] [--k=4] "
      "[--seed=N]\n"
      "  shbf_cli multiset query <catalog.shbc> <keys.txt> [--scan]\n"
      "  shbf_cli multiset stats <catalog.shbc>\n"
      "  shbf_cli remote <host:port> list\n"
      "  shbf_cli remote <host:port> stats <name>\n"
      "  shbf_cli remote <host:port> query <name> <keys.txt> [--count]\n"
      "  shbf_cli remote <host:port> add <name> <keys.txt>\n"
      "  shbf_cli remote <host:port> remove <name> <keys.txt>\n"
      "  shbf_cli remote <host:port> snapshot <name> [<server-path>]\n"
      "  shbf_cli remote <host:port> reload <name> [<server-path>]\n"
      "  shbf_cli remote <host:port> which-sets <keys.txt>\n"
      "  shbf_cli remote <host:port> index-add <set> <keys.txt>\n"
      "  shbf_cli remote <host:port> index-drop <set>\n"
      "  shbf_cli remote <host:port> multiset-list\n"
      "  shbf_cli --filter=<name>        (selftest for one filter)\n"
      "  shbf_cli --help | --version\n"
      "multiset answers \"which of my N sets contain key k\" over a "
      "SetCatalog\n"
      "(docs/multiset.md); remote drives a running shbf_server (wire "
      "protocol:\n"
      "docs/serving.md).\n"
      "filters: ");
  for (const auto& name : FilterRegistry::Global().Names()) {
    std::fprintf(out, "%s ", name.c_str());
  }
  std::fprintf(out, "\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Status ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::NotFound("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines->push_back(line);
  }
  return Status::Ok();
}

int List() {
  // Names() is sorted, so scripts can diff the listing; the capabilities
  // column ("add,remove,merge" / "bulk") lets them discover remove-capable
  // filters without instantiating each one.
  const auto& registry = FilterRegistry::Global();
  std::printf("%-18s %-13s %-17s %s\n", "name", "family", "capabilities",
              "description");
  for (const auto& name : registry.Names()) {
    const auto* entry = registry.Find(name);
    std::printf("%-18s %-13s %-17s %s\n", name.c_str(),
                FilterFamilyName(entry->family),
                CapabilitiesToString(entry->capabilities).c_str(),
                entry->description.c_str());
  }
  return 0;
}

/// Builds the named filter over `keys` at the requested density.
Status BuildFilter(const std::vector<std::string>& keys,
                   const Options& options,
                   std::unique_ptr<MembershipFilter>* out) {
  FilterSpec spec = FilterSpec::ForKeys(keys.size(), options.bits_per_key,
                                        options.num_hashes);
  spec.seed = options.seed;
  // Key files are sets (each key once), so the multiplicity variants only
  // need a small count cap — ShBF_X's FPR grows linearly in it.
  spec.max_count = 8;
  Status s =
      FilterRegistry::Global().Create(options.filter_name, spec, out);
  if (!s.ok()) return s;
  for (const auto& key : keys) (*out)->Add(key);
  return Status::Ok();
}

int Build(const std::string& keys_path, const std::string& filter_path,
          const Options& options) {
  std::vector<std::string> keys;
  Status s = ReadLines(keys_path, &keys);
  if (!s.ok() || keys.empty()) {
    std::fprintf(stderr, "error: %s\n",
                 s.ok() ? "no keys in input" : s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<MembershipFilter> filter;
  s = BuildFilter(keys, options, &filter);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::string blob = FilterRegistry::Serialize(*filter);
  s = WriteStringToFile(filter_path, blob);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  // Summaries go to stderr: the output path may be /dev/stdout.
  std::fprintf(stderr,
               "built %s filter: %zu keys, %zu bytes in memory -> %s "
               "(%zu bytes on disk)\n",
               std::string(filter->name()).c_str(), keys.size(),
               filter->memory_bytes(), filter_path.c_str(), blob.size());
  return 0;
}

/// Loads a registry-envelope blob, falling back to the legacy raw ShbfM /
/// BloomFilter formats older CLI versions wrote.
Status Load(const std::string& path,
            std::unique_ptr<MembershipFilter>* out) {
  std::string blob;
  Status s = ReadFileToString(path, &blob);
  if (!s.ok()) return s;
  s = FilterRegistry::Global().Deserialize(blob, out);
  if (s.ok()) return s;
  // A blob that starts with the registry-envelope magic IS an envelope —
  // surface the registry's own diagnosis (e.g. the found-vs-supported
  // version mismatch naming the filter) instead of burying it under the
  // legacy fallback's generic "not recognized".
  if (blob.size() >= 4 && blob.compare(0, 4, "SHBR") == 0) return s;
  // Legacy fallback: a raw concrete-filter blob is an adapter payload minus
  // the 8-byte add-counter prefix, so synthesize that prefix from the
  // blob's own element count and retry.
  std::optional<ShbfM> shbf_m;
  std::optional<BloomFilter> bloom;
  const char* legacy_name = "shbf_m";
  size_t count = 0;
  if (ShbfM::FromBytes(blob, &shbf_m).ok()) {
    count = shbf_m->num_elements();
  } else if (BloomFilter::FromBytes(blob, &bloom).ok()) {
    legacy_name = "bloom";
    count = bloom->num_elements();
  } else {
    return Status::InvalidArgument(path + " is not a recognized filter blob");
  }
  ByteWriter writer;
  writer.PutU64(count);
  writer.PutBytes(blob.data(), blob.size());
  return FilterRegistry::Global().Find(legacy_name)->deserializer(
      writer.Take(), out);
}

int Query(const std::string& filter_path, const std::string& keys_path) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = Load(filter_path, &filter);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::string> keys;
  s = ReadLines(keys_path, &keys);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  // Route through the batch engine: the non-virtual prefetching path for
  // probe-protocol filters, the filter's own batch for the rest.
  BatchQueryEngine engine;
  std::vector<uint8_t> results;
  engine.ContainsBatch(*filter, keys, &results);
  size_t positives = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    positives += results[i];
    std::printf("%s\t%d\n", keys[i].c_str(), results[i] ? 1 : 0);
  }
  std::fprintf(stderr, "%zu/%zu keys positive\n", positives, keys.size());
  return 0;
}

int Info(const std::string& filter_path) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = Load(filter_path, &filter);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto* entry = FilterRegistry::Global().Find(filter->name());
  std::printf("filter:        %s\n", std::string(filter->name()).c_str());
  if (entry != nullptr) {
    std::printf("family:        %s\n", FilterFamilyName(entry->family));
    std::printf("description:   %s\n", entry->description.c_str());
  }
  std::printf("elements:      %zu\n", filter->num_elements());
  std::printf("memory:        %zu bytes\n", filter->memory_bytes());
  return 0;
}

/// Build → serialize → reload → query round trip for one registry name.
int SelfTestOne(const std::string& name) {
  std::string dir = "/tmp";
  if (const char* env = getenv("TMPDIR"); env != nullptr) dir = env;
  std::string keys_path = dir + "/shbf_cli_selftest_keys.txt";
  std::string filter_path = dir + "/shbf_cli_selftest.shbf";
  {
    std::ofstream keys(keys_path, std::ios::trunc);
    for (int i = 0; i < 1000; ++i) keys << "key-" << i << "\n";
  }
  Options options;
  options.filter_name = name;
  if (Build(keys_path, filter_path, options) != 0) return 1;
  std::unique_ptr<MembershipFilter> filter;
  if (!Load(filter_path, &filter).ok()) {
    std::fprintf(stderr, "selftest FAILED (%s): reload failed\n",
                 name.c_str());
    return 1;
  }
  for (int i = 0; i < 1000; ++i) {
    if (!filter->Contains("key-" + std::to_string(i))) {
      std::fprintf(stderr, "selftest FAILED (%s): false negative at %d\n",
                   name.c_str(), i);
      return 1;
    }
  }
  size_t false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    false_positives += filter->Contains("absent-" + std::to_string(i));
  }
  // Per-filter bound at 12 bits/key: ~3% for ordinary membership filters;
  // the shbf_x variants trade FPR for count information (FPR scales with
  // max_count), and ibf splits its bit budget across two filters.
  size_t fpr_limit = 300;
  if (name == "shbf_x" || name == "counting_shbf_x") fpr_limit = 600;
  if (name == "ibf") fpr_limit = 1500;
  if (false_positives > fpr_limit) {
    std::fprintf(stderr, "selftest FAILED (%s): FPR too high (%zu/10000)\n",
                 name.c_str(), false_positives);
    return 1;
  }
  std::remove(keys_path.c_str());
  std::remove(filter_path.c_str());
  std::printf("selftest OK (%s, FPR %zu/10000)\n", name.c_str(),
              false_positives);
  return 0;
}

int SelfTest(const std::string& only_name) {
  if (!only_name.empty()) return SelfTestOne(only_name);
  int failures = 0;
  for (const auto& name : FilterRegistry::Global().Names()) {
    failures += SelfTestOne(name) != 0;
  }
  if (failures > 0) {
    std::fprintf(stderr, "selftest FAILED for %d filter(s)\n", failures);
    return 1;
  }
  std::printf("selftest OK for all %zu registered filters\n",
              FilterRegistry::Global().Names().size());
  return 0;
}

struct BenchOptions {
  std::string filter_name = "shbf_m";
  size_t num_keys = 1000000;
  double bits_per_key = 12.0;
  uint32_t num_hashes = 8;
  uint32_t batch = 32;
  uint32_t shards = 8;
  uint32_t threads = 4;
};

/// In-process membership throughput: per-key virtual dispatch vs the batch
/// engine vs a sharded filter under concurrent queries.
int Bench(const BenchOptions& options) {
  if (options.num_keys == 0 || options.threads == 0) {
    std::fprintf(stderr, "error: bench needs --keys > 0 and --threads > 0\n");
    return 1;
  }
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = FilterSpec::ForKeys(options.num_keys,
                                        options.bits_per_key,
                                        options.num_hashes);
  spec.max_count = 8;
  spec.batch_size = options.batch;
  std::unique_ptr<MembershipFilter> filter;
  Status s = registry.Create(options.filter_name, spec, &filter);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<std::string> keys(options.num_keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = "bench-key-" + std::to_string(i);
  }
  for (const auto& key : keys) filter->Add(key);
  std::vector<std::string> queries = keys;
  std::shuffle(queries.begin(), queries.end(), std::mt19937_64(0xbe9c4));
  filter->Contains(queries.front());  // force lazy builds out of the loop

  std::printf("bench: %s, %zu keys at %.1f bits/key (k = %u)\n",
              options.filter_name.c_str(), options.num_keys,
              options.bits_per_key, options.num_hashes);

  WallTimer timer;
  uint64_t hits = 0;
  for (const auto& key : queries) hits += filter->Contains(key);
  DoNotOptimize(hits);
  const double per_key_seconds = timer.ElapsedSeconds();
  const double per_key_mops = Mops(queries.size(), per_key_seconds);
  std::printf("  per_key               %8.2f Mops/s\n", per_key_mops);

  BatchQueryEngine engine({.batch_size = options.batch});
  std::vector<uint8_t> results;
  engine.ContainsBatch(*filter, queries, &results);  // warm-up
  timer.Reset();
  engine.ContainsBatch(*filter, queries, &results);
  const double batched_mops = Mops(queries.size(), timer.ElapsedSeconds());
  std::printf("  batched (batch=%-3u)   %8.2f Mops/s  (%.2fx)\n",
              options.batch, batched_mops, batched_mops / per_key_mops);

  if (options.shards < 2) {
    std::printf("  sharded               (skipped: --shards < 2)\n");
    return 0;
  }
  FilterSpec sharded_spec = spec;
  sharded_spec.shards = options.shards;
  std::unique_ptr<MembershipFilter> sharded;
  s = registry.Create(options.filter_name, sharded_spec, &sharded);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  static_cast<ShardedMembershipFilter*>(sharded.get())->AddBatch(keys);
  // Warm every shard (triggers lazy rebuilds) and pre-slice the query
  // stream, so the timed region holds queries only.
  sharded->ContainsBatch(queries, &results);
  std::vector<std::vector<std::string>> slices(options.threads);
  const size_t slice = (queries.size() + options.threads - 1) /
                       options.threads;
  for (uint32_t t = 0; t < options.threads; ++t) {
    const size_t begin = std::min(t * slice, queries.size());
    const size_t end = std::min(begin + slice, queries.size());
    slices[t].assign(queries.begin() + begin, queries.begin() + end);
  }
  timer.Reset();
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      if (slices[t].empty()) return;
      std::vector<uint8_t> thread_results;
      sharded->ContainsBatch(slices[t], &thread_results);
      DoNotOptimize(thread_results.size());
    });
  }
  for (auto& worker : workers) worker.join();
  const double sharded_mops = Mops(queries.size(), timer.ElapsedSeconds());
  std::printf("  sharded (%u x %u thr)  %8.2f Mops/s  (%.2fx)\n",
              options.shards, options.threads, sharded_mops,
              sharded_mops / per_key_mops);
  return 0;
}

// ---------------------------------------------------------------------------
// multiset — SetCatalog + MultiSetIndex front end (docs/multiset.md)
// ---------------------------------------------------------------------------

struct MultisetOptions {
  std::string filter_name = "shbf_m";
  // Bits per key trade each set's FPR against memory (docs/multiset.md,
  // "Sizing"); each set is sized from its own key count.
  double bits_per_key = 64.0;
  uint32_t num_hashes = 4;
  uint64_t seed = kDefaultSeed;
  bool scan = false;
};

int MultisetBuild(const std::string& catalog_path,
                  const std::vector<std::string>& set_args,
                  const MultisetOptions& options) {
  SetCatalog catalog;
  for (const std::string& arg : set_args) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
      std::fprintf(stderr, "error: multiset build needs <set>=<keys.txt>, "
                           "got '%s'\n", arg.c_str());
      return 2;
    }
    const std::string set_name = arg.substr(0, eq);
    std::vector<std::string> keys;
    Status s = ReadLines(arg.substr(eq + 1), &keys);
    if (!s.ok() || keys.empty()) {
      std::fprintf(stderr, "error: set '%s': %s\n", set_name.c_str(),
                   s.ok() ? "no keys in input" : s.ToString().c_str());
      return 1;
    }
    FilterSpec spec = FilterSpec::ForKeys(keys.size(), options.bits_per_key,
                                          options.num_hashes);
    spec.seed = options.seed;
    spec.max_count = 8;
    std::unique_ptr<MembershipFilter> filter;
    s = FilterRegistry::Global().Create(options.filter_name, spec, &filter);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    for (const auto& key : keys) filter->Add(key);
    uint32_t id = 0;
    s = catalog.AddSet(set_name, std::move(filter), &id);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "set %-3u %-24s %zu keys\n", id, set_name.c_str(),
                 keys.size());
  }
  const std::string blob = catalog.Serialize();
  Status s = WriteStringToFile(catalog_path, blob);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "built catalog: %zu set(s), %zu bytes in memory -> %s "
               "(%zu bytes on disk)\n",
               catalog.size(), catalog.memory_bytes(), catalog_path.c_str(),
               blob.size());
  return 0;
}

Status LoadCatalogAndIndex(const std::string& catalog_path,
                           const MultisetOptions& options,
                           SetCatalog* catalog,
                           std::unique_ptr<MultiSetIndex>* index) {
  std::string blob;
  Status s = ReadFileToString(catalog_path, &blob);
  if (!s.ok()) return s;
  s = SetCatalog::Deserialize(blob, FilterRegistry::Global(), catalog);
  if (!s.ok()) return s;
  MultiSetIndexOptions index_options;
  index_options.force_scan = options.scan;
  return MultiSetIndex::Build(catalog, index_options, index);
}

int MultisetQuery(const std::string& catalog_path,
                  const std::string& keys_path,
                  const MultisetOptions& options) {
  SetCatalog catalog;
  std::unique_ptr<MultiSetIndex> index;
  Status s = LoadCatalogAndIndex(catalog_path, options, &catalog, &index);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::string> keys;
  s = ReadLines(keys_path, &keys);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  SetIdRows answers;
  index->WhichSetsBatch(keys, &answers);
  size_t hits = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string names;
    answers.ForEachId(i, [&](uint32_t id) {
      if (!names.empty()) names += ',';
      names += catalog.FindById(id)->name;
    });
    hits += names.empty() ? 0 : 1;
    std::printf("%s\t%s\n", keys[i].c_str(),
                names.empty() ? "-" : names.c_str());
  }
  const MultiSetIndex::Stats stats = index->stats();
  std::fprintf(stderr,
               "%zu/%zu keys in >= 1 set; %llu probes over %zu sets: "
               "%zu slice(s) of %zu sliced set(s), %zu scan set(s), "
               "%zu index bytes\n",
               hits, keys.size(),
               static_cast<unsigned long long>(stats.probes), stats.sets,
               stats.slices, stats.sliced_sets, stats.scan_sets,
               stats.memory_bytes);
  return 0;
}

int MultisetStats(const std::string& catalog_path,
                  const MultisetOptions& options) {
  SetCatalog catalog;
  std::unique_ptr<MultiSetIndex> index;
  Status s = LoadCatalogAndIndex(catalog_path, options, &catalog, &index);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const MultiSetIndex::Stats stats = index->stats();
  std::printf("catalog:          %s\n", catalog_path.c_str());
  std::printf("sets:             %zu (id bound %u)\n", catalog.size(),
              catalog.id_bound());
  std::printf("slices:           %zu\n", stats.slices);
  std::printf("sliced sets:      %zu\n", stats.sliced_sets);
  std::printf("scan sets:        %zu\n", stats.scan_sets);
  std::printf("index memory:     %zu bytes (slices + probe templates)\n",
              stats.memory_bytes);
  std::printf("scan set memory:  %zu bytes\n", catalog.memory_bytes());
  std::printf("%-4s %-24s %-18s %-17s %s\n", "id", "set", "filter",
              "capabilities", "elements");
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    std::printf("%-4u %-24s %-18s %-17s %zu\n", entry->id,
                entry->name.c_str(), std::string(entry->filter->name()).c_str(),
                CapabilitiesToString(entry->filter->capabilities()).c_str(),
                entry->filter->num_elements());
  }
  return 0;
}

int Multiset(int argc, char** argv) {
  if (argc >= 3 && (std::strcmp(argv[2], "--help") == 0 ||
                    std::strcmp(argv[2], "-h") == 0)) {
    PrintUsage(stdout);
    return 0;
  }
  if (argc < 4) return Usage();
  const std::string op = argv[2];
  const std::string catalog_path = argv[3];
  MultisetOptions options;
  std::vector<std::string> positional;
  for (int i = 4; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--scan") == 0) {
      options.scan = true;
    } else if (ParseFlag(argv[i], "filter", &value)) {
      options.filter_name = value;
    } else if (ParseFlag(argv[i], "bits-per-key", &value)) {
      options.bits_per_key = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "k", &value)) {
      options.num_hashes = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return Usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (op == "build" && !positional.empty()) {
    return MultisetBuild(catalog_path, positional, options);
  }
  if (op == "query" && positional.size() == 1) {
    return MultisetQuery(catalog_path, positional.front(), options);
  }
  if (op == "stats" && positional.empty()) {
    return MultisetStats(catalog_path, options);
  }
  return Usage();
}

void PrintRemoteUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: shbf_cli remote <host:port> <op>\n"
      "  list                          every served filter with stats\n"
      "  stats <name>                  one served filter's stats\n"
      "  query <name> <keys.txt>       batched membership (--count for\n"
      "                                multiplicity counts)\n"
      "  add <name> <keys.txt>         insert keys\n"
      "  remove <name> <keys.txt>      delete keys (kRemove filters only)\n"
      "  snapshot <name> [<path>]      serialize to a file on the SERVER\n"
      "  reload <name> [<path>]        replace from a file on the SERVER\n"
      "  which-sets <keys.txt>         which catalog sets contain each key\n"
      "                                (multiset index, docs/multiset.md)\n"
      "  index-add <set> <keys.txt>    add keys to one catalog set\n"
      "  index-drop <set>              drop one catalog set from the index\n"
      "  multiset-list                 catalog sets + index shape\n"
      "  metrics [--prom]              server metrics snapshot (METRICS\n"
      "                                opcode, v3): counters, gauges, and\n"
      "                                latency quantiles; --prom emits the\n"
      "                                Prometheus exposition format\n"
      "wire protocol: docs/serving.md; server: shbf_server --help\n");
}

/// Splits "host:port" (host defaults to 127.0.0.1 when absent).
bool ParseEndpoint(const std::string& endpoint, std::string* host,
                   uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
  *host = colon == std::string::npos || colon == 0
              ? "127.0.0.1"
              : endpoint.substr(0, colon);
  const unsigned long value = std::strtoul(port_text.c_str(), nullptr, 10);
  if (value == 0 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

void PrintFilterInfo(const ShbfClient::FilterInfo& info) {
  std::printf("%-18s %-24s %-17s %12llu elements %12llu bytes\n",
              info.serve_name.c_str(), info.registry_name.c_str(),
              CapabilitiesToString(info.capabilities).c_str(),
              static_cast<unsigned long long>(info.elements),
              static_cast<unsigned long long>(info.memory_bytes));
}

/// Drives a running shbf_server. Key files stream in frames of
/// `kRemoteFrameKeys` keys so arbitrarily large files stay under the
/// per-frame limits.
int Remote(int argc, char** argv) {
  constexpr size_t kRemoteFrameKeys = 8192;
  if (argc >= 3 && (std::strcmp(argv[2], "--help") == 0 ||
                    std::strcmp(argv[2], "-h") == 0)) {
    PrintRemoteUsage(stdout);
    return 0;
  }
  if (argc < 4) {
    PrintRemoteUsage(stderr);
    return 2;
  }
  std::string host;
  uint16_t port = 0;
  if (!ParseEndpoint(argv[2], &host, &port)) {
    std::fprintf(stderr, "error: bad endpoint '%s' (want host:port)\n",
                 argv[2]);
    return 2;
  }
  const std::string op = argv[3];
  ShbfClient client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  if (op == "list" && argc == 4) {
    std::vector<ShbfClient::FilterInfo> filters;
    s = client.List(&filters);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("%s serving %zu filter(s)\n",
                client.server_version().c_str(), filters.size());
    for (const auto& info : filters) PrintFilterInfo(info);
    return 0;
  }
  if (op == "stats" && argc == 5) {
    ShbfClient::FilterInfo info;
    s = client.Stats(argv[4], &info);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    PrintFilterInfo(info);
    return 0;
  }
  if ((op == "query" || op == "add" || op == "remove") &&
      (argc == 6 || (op == "query" && argc == 7))) {
    const std::string name = argv[4];
    bool count_mode = false;
    if (argc == 7) {
      if (std::strcmp(argv[6], "--count") != 0) {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[6]);
        PrintRemoteUsage(stderr);
        return 2;
      }
      count_mode = true;
    }
    std::vector<std::string> keys;
    s = ReadLines(argv[5], &keys);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    uint64_t positives = 0;
    for (size_t begin = 0; begin < keys.size(); begin += kRemoteFrameKeys) {
      const size_t end = std::min(begin + kRemoteFrameKeys, keys.size());
      const std::vector<std::string> frame(keys.begin() + begin,
                                           keys.begin() + end);
      if (op == "add") {
        s = client.Add(name, frame);
      } else if (op == "remove") {
        std::vector<uint8_t> removed;
        s = client.Remove(name, frame, &removed);
        for (size_t i = 0; s.ok() && i < frame.size(); ++i) {
          positives += removed[i];
          std::printf("%s\t%d\n", frame[i].c_str(), removed[i] ? 1 : 0);
        }
      } else if (count_mode) {
        std::vector<uint64_t> counts;
        s = client.QueryCount(name, frame, &counts);
        for (size_t i = 0; s.ok() && i < frame.size(); ++i) {
          positives += counts[i] > 0;
          std::printf("%s\t%llu\n", frame[i].c_str(),
                      static_cast<unsigned long long>(counts[i]));
        }
      } else {
        std::vector<uint8_t> results;
        s = client.Query(name, frame, &results);
        for (size_t i = 0; s.ok() && i < frame.size(); ++i) {
          positives += results[i];
          std::printf("%s\t%d\n", frame[i].c_str(), results[i] ? 1 : 0);
        }
      }
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    if (op == "add") {
      std::fprintf(stderr, "added %zu key(s) to %s\n", keys.size(),
                   name.c_str());
    } else {
      std::fprintf(stderr, "%llu/%zu keys %s\n",
                   static_cast<unsigned long long>(positives), keys.size(),
                   op == "remove" ? "removed" : "positive");
    }
    return 0;
  }
  if (op == "which-sets" && argc == 5) {
    std::vector<std::string> keys;
    s = ReadLines(argv[4], &keys);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    // One MULTISET_LIST up front resolves ids to names for the output.
    ShbfClient::MultisetInfo info;
    s = client.MultisetList(&info);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::map<uint32_t, std::string> names;
    for (const auto& set : info.sets) names.emplace(set.id, set.name);
    uint64_t hits = 0;
    for (size_t begin = 0; begin < keys.size(); begin += kRemoteFrameKeys) {
      const size_t end = std::min(begin + kRemoteFrameKeys, keys.size());
      const std::vector<std::string> frame(keys.begin() + begin,
                                           keys.begin() + end);
      std::vector<std::vector<uint32_t>> which;
      s = client.WhichSets(frame, &which);
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < frame.size(); ++i) {
        std::string row;
        for (uint32_t id : which[i]) {
          if (!row.empty()) row += ',';
          auto it = names.find(id);
          row += it != names.end() ? it->second : std::to_string(id);
        }
        hits += row.empty() ? 0 : 1;
        std::printf("%s\t%s\n", frame[i].c_str(),
                    row.empty() ? "-" : row.c_str());
      }
    }
    std::fprintf(stderr, "%llu/%zu keys in >= 1 of %zu set(s)\n",
                 static_cast<unsigned long long>(hits), keys.size(),
                 info.sets.size());
    return 0;
  }
  if (op == "index-add" && argc == 6) {
    std::vector<std::string> keys;
    s = ReadLines(argv[5], &keys);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    uint64_t total = 0;
    for (size_t begin = 0; begin < keys.size(); begin += kRemoteFrameKeys) {
      const size_t end = std::min(begin + kRemoteFrameKeys, keys.size());
      const std::vector<std::string> frame(keys.begin() + begin,
                                           keys.begin() + end);
      uint64_t added = 0;
      s = client.IndexAdd(argv[4], frame, &added);
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
      total += added;
    }
    std::fprintf(stderr, "added %llu key(s) to set '%s'\n",
                 static_cast<unsigned long long>(total), argv[4]);
    return 0;
  }
  if (op == "index-drop" && argc == 5) {
    uint64_t remaining = 0;
    s = client.IndexDrop(argv[4], &remaining);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("dropped set '%s' (%llu set(s) remain)\n", argv[4],
                static_cast<unsigned long long>(remaining));
    return 0;
  }
  if (op == "multiset-list" && argc == 4) {
    ShbfClient::MultisetInfo info;
    s = client.MultisetList(&info);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu set(s): %u slice(s) of %zu sliced set(s), "
                "%u scan set(s), %llu index bytes\n",
                client.server_version().c_str(), info.sets.size(),
                info.slices, info.sets.size() - info.scan_sets,
                info.scan_sets,
                static_cast<unsigned long long>(info.summary_memory_bytes));
    for (const auto& set : info.sets) {
      std::printf("%-4u %-24s %-18s %12llu elements\n", set.id,
                  set.name.c_str(), set.registry_name.c_str(),
                  static_cast<unsigned long long>(set.elements));
    }
    return 0;
  }
  if (op == "metrics" && (argc == 4 || argc == 5)) {
    bool prometheus = false;
    if (argc == 5) {
      if (std::strcmp(argv[4], "--prom") != 0) {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[4]);
        PrintRemoteUsage(stderr);
        return 2;
      }
      prometheus = true;
    }
    ShbfClient::ServerMetrics metrics;
    s = client.Metrics(&metrics);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    if (prometheus) {
      std::fputs(metrics.snapshot.ToPrometheus().c_str(), stdout);
      return 0;
    }
    std::printf("%s  cpu=%s  uptime=%llus\n", metrics.version.c_str(),
                metrics.cpu.c_str(),
                static_cast<unsigned long long>(metrics.uptime_seconds));
    if (!metrics.snapshot.counters.empty()) {
      std::printf("\n%-40s %20s\n", "counter", "value");
      for (const auto& [name, value] : metrics.snapshot.counters) {
        std::printf("%-40s %20llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
    if (!metrics.snapshot.gauges.empty()) {
      std::printf("\n%-40s %20s\n", "gauge", "value");
      for (const auto& [name, value] : metrics.snapshot.gauges) {
        std::printf("%-40s %20lld\n", name.c_str(),
                    static_cast<long long>(value));
      }
    }
    if (!metrics.snapshot.histograms.empty()) {
      std::printf("\n%-32s %12s %10s %10s %10s %10s\n", "histogram", "count",
                  "p50", "p90", "p99", "p99.9");
      for (const auto& h : metrics.snapshot.histograms) {
        std::printf("%-32s %12llu %10.0f %10.0f %10.0f %10.0f\n",
                    h.name.c_str(), static_cast<unsigned long long>(h.count),
                    h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99),
                    h.Quantile(0.999));
      }
    }
    return 0;
  }
  if ((op == "snapshot" || op == "reload") && (argc == 5 || argc == 6)) {
    const std::string name = argv[4];
    const std::string path = argc == 6 ? argv[5] : "";
    if (op == "snapshot") {
      uint64_t bytes = 0;
      std::string path_used;
      s = client.Snapshot(name, path, &bytes, &path_used);
      if (s.ok()) {
        std::printf("snapshot of '%s': %llu bytes -> %s\n", name.c_str(),
                    static_cast<unsigned long long>(bytes),
                    path_used.c_str());
      }
    } else {
      uint64_t elements = 0;
      s = client.Reload(name, path, &elements);
      if (s.ok()) {
        std::printf("reloaded '%s': %llu element(s)\n", name.c_str(),
                    static_cast<unsigned long long>(elements));
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  PrintRemoteUsage(stderr);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage(stdout);
    return 0;
  }
  if (command == "--version") {
    std::printf("shbf_cli %s (protocol v%u)\n", kShbfVersion,
                wire::kProtocolVersion);
    return 0;
  }
  if (command == "remote") return Remote(argc, argv);
  if (command == "multiset") return Multiset(argc, argv);
  std::string flag_value;
  if (ParseFlag(command, "filter", &flag_value)) {
    return SelfTest(flag_value);
  }
  if (command == "list") return List();
  if (command == "selftest") {
    std::string name;
    for (int i = 2; i < argc; ++i) {
      if (!ParseFlag(argv[i], "filter", &name)) return Usage();
    }
    return SelfTest(name);
  }
  if (command == "bench") {
    BenchOptions options;
    for (int i = 2; i < argc; ++i) {
      std::string value;
      if (ParseFlag(argv[i], "filter", &value)) {
        options.filter_name = value;
      } else if (ParseFlag(argv[i], "keys", &value)) {
        options.num_keys = std::strtoull(value.c_str(), nullptr, 0);
      } else if (ParseFlag(argv[i], "bits-per-key", &value)) {
        options.bits_per_key = std::atof(value.c_str());
      } else if (ParseFlag(argv[i], "k", &value)) {
        options.num_hashes = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else if (ParseFlag(argv[i], "batch", &value)) {
        options.batch = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else if (ParseFlag(argv[i], "shards", &value)) {
        options.shards = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else if (ParseFlag(argv[i], "threads", &value)) {
        options.threads = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
        return Usage();
      }
    }
    return Bench(options);
  }
  if (command == "info" && argc == 3) return Info(argv[2]);
  if (command == "query" && argc == 4) return Query(argv[2], argv[3]);
  if (command == "build" && argc >= 4) {
    Options options;
    for (int i = 4; i < argc; ++i) {
      std::string value;
      if (ParseFlag(argv[i], "bits-per-key", &value)) {
        options.bits_per_key = std::atof(value.c_str());
      } else if (ParseFlag(argv[i], "k", &value)) {
        options.num_hashes = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else if (ParseFlag(argv[i], "filter", &value) ||
                 ParseFlag(argv[i], "type", &value)) {
        options.filter_name = value == "shbf" ? "shbf_m" : value;
      } else if (ParseFlag(argv[i], "seed", &value)) {
        options.seed = std::strtoull(value.c_str(), nullptr, 0);
      } else {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
        return Usage();
      }
    }
    return Build(argv[2], argv[3], options);
  }
  return Usage();
}

}  // namespace
}  // namespace shbf

int main(int argc, char** argv) { return shbf::Main(argc, argv); }
