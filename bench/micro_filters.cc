// Micro-benchmarks: per-operation cost of every structure in the library at
// a common operating point (n = 10000 elements, k = 8, optimal-ish memory).
//
// Query benches are registry-driven: every filter registered in the
// FilterRegistry gets a member and a non-member Contains bench through the
// uniform MembershipFilter interface, so new filters are benchmarked the
// moment they register. Two hand-written concrete benches (bloom, shbf_m)
// remain as the inlined baseline — their delta against the registry variants
// is the price of virtual dispatch.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/filter_registry.h"
#include "baselines/bloom_filter.h"
#include "baselines/counting_bloom_filter.h"
#include "engine/batch_query_engine.h"
#include "shbf/counting_shbf_membership.h"
#include "shbf/shbf_membership.h"
#include "shbf/shbf_multiplicity.h"
#include "trace/workload.h"

namespace shbf {
namespace {

constexpr size_t kN = 10000;
constexpr uint32_t kK = 8;
constexpr size_t kM = 115000;  // ~= n·k/ln2

const MembershipWorkload& Workload() {
  static const MembershipWorkload w = MakeMembershipWorkload(kN, kN, 0x51c0);
  return w;
}

FilterSpec BenchSpec() {
  FilterSpec spec;
  spec.num_cells = kM;
  spec.num_hashes = kK;
  spec.expected_keys = kN;
  spec.max_count = 8;
  return spec;
}

// --- registry-driven query benches: every registered filter ---------------

void RunRegistryQueryBench(benchmark::State& state, const std::string& name,
                           const std::vector<std::string>& queries) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = FilterRegistry::Global().Create(name, BenchSpec(), &filter);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  for (const auto& key : Workload().members) filter->Add(key);
  filter->Contains(queries.front());  // force lazy builds out of the loop
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter->Contains(queries[i % queries.size()]));
    ++i;
  }
}

int RegisterRegistryBenches() {
  for (const auto& name : FilterRegistry::Global().Names()) {
    benchmark::RegisterBenchmark(
        ("BM_Registry_ContainsMember/" + name).c_str(),
        [name](benchmark::State& state) {
          RunRegistryQueryBench(state, name, Workload().members);
        });
    benchmark::RegisterBenchmark(
        ("BM_Registry_ContainsNonMember/" + name).c_str(),
        [name](benchmark::State& state) {
          RunRegistryQueryBench(state, name, Workload().non_members);
        });
  }
  return 0;
}

[[maybe_unused]] const int kRegistryBenchesRegistered = RegisterRegistryBenches();

// --- engine-batched queries: every registered filter ----------------------
// Delta against BM_Registry_ContainsMember is what the two-pass prefetching
// engine buys (fast-path filters) or costs (fallback filters) per query.

void RunEngineBatchBench(benchmark::State& state, const std::string& name) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = FilterRegistry::Global().Create(name, BenchSpec(), &filter);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  for (const auto& key : Workload().members) filter->Add(key);
  BatchQueryEngine engine({.batch_size = 32});
  std::vector<uint8_t> results;
  engine.ContainsBatch(*filter, Workload().members, &results);  // warm-up
  for (auto _ : state) {
    engine.ContainsBatch(*filter, Workload().members, &results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Workload().members.size()));
}

int RegisterEngineBatchBenches() {
  for (const auto& name : FilterRegistry::Global().Names()) {
    benchmark::RegisterBenchmark(
        ("BM_Registry_EngineContainsBatch/" + name).c_str(),
        [name](benchmark::State& state) {
          RunEngineBatchBench(state, name);
        });
  }
  return 0;
}

[[maybe_unused]] const int kEngineBatchBenchesRegistered =
    RegisterEngineBatchBenches();

// --- inlined concrete baselines (virtual-dispatch overhead reference) -----

void BM_Bloom_ContainsMember_Inlined(benchmark::State& state) {
  BloomFilter filter({.num_bits = kM, .num_hashes = kK});
  for (const auto& key : Workload().members) filter.Add(key);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(Workload().members[i % kN]));
    ++i;
  }
}
BENCHMARK(BM_Bloom_ContainsMember_Inlined);

void BM_ShbfM_ContainsMember_Inlined(benchmark::State& state) {
  ShbfM filter({.num_bits = kM, .num_hashes = kK});
  for (const auto& key : Workload().members) filter.Add(key);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(Workload().members[i % kN]));
    ++i;
  }
}
BENCHMARK(BM_ShbfM_ContainsMember_Inlined);

// --- update paths ---------------------------------------------------------

void BM_Bloom_Add(benchmark::State& state) {
  BloomFilter filter({.num_bits = kM, .num_hashes = kK});
  size_t i = 0;
  for (auto _ : state) {
    filter.Add(Workload().members[i % kN]);
    ++i;
  }
}
BENCHMARK(BM_Bloom_Add);

void BM_ShbfM_Add(benchmark::State& state) {
  ShbfM filter({.num_bits = kM, .num_hashes = kK});
  size_t i = 0;
  for (auto _ : state) {
    filter.Add(Workload().members[i % kN]);
    ++i;
  }
}
BENCHMARK(BM_ShbfM_Add);

void BM_CountingShbfM_InsertDelete(benchmark::State& state) {
  CountingShbfM filter(
      {.num_bits = kM, .num_hashes = kK, .counter_bits = 8});
  size_t i = 0;
  for (auto _ : state) {
    const std::string& key = Workload().members[i % kN];
    filter.Insert(key);
    filter.Delete(key);
    ++i;
  }
}
BENCHMARK(BM_CountingShbfM_InsertDelete);

void BM_CountingBloom_InsertDelete(benchmark::State& state) {
  CountingBloomFilter filter(
      {.num_counters = kM, .num_hashes = kK, .counter_bits = 8});
  size_t i = 0;
  for (auto _ : state) {
    const std::string& key = Workload().members[i % kN];
    filter.Insert(key);
    filter.Delete(key);
    ++i;
  }
}
BENCHMARK(BM_CountingBloom_InsertDelete);

// --- multiplicity count queries (registry-driven) -------------------------

void RunRegistryCountBench(benchmark::State& state, const std::string& name) {
  std::unique_ptr<MultiplicityFilter> filter;
  FilterSpec spec = BenchSpec();
  spec.max_count = 57;
  Status s =
      FilterRegistry::Global().CreateMultiplicity(name, spec, &filter);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  static const MultiplicityWorkload w = MakeMultiplicityWorkload(kN, 8, 0, 77);
  for (size_t i = 0; i < w.keys.size(); ++i) {
    for (uint32_t c = 0; c < w.counts[i]; ++c) filter->Add(w.keys[i]);
  }
  filter->QueryCount(w.keys.front());  // force lazy builds out of the loop
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter->QueryCount(w.keys[i % w.keys.size()]));
    ++i;
  }
}

int RegisterCountBenches() {
  for (const auto& name :
       FilterRegistry::Global().Names(FilterFamily::kMultiplicity)) {
    benchmark::RegisterBenchmark(
        ("BM_Registry_QueryCount/" + name).c_str(),
        [name](benchmark::State& state) {
          RunRegistryCountBench(state, name);
        });
  }
  return 0;
}

[[maybe_unused]] const int kCountBenchesRegistered = RegisterCountBenches();

}  // namespace
}  // namespace shbf
