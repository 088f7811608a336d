// Micro-benchmarks: raw hash-function throughput on the key lengths the
// experiments use (13-byte flow IDs) plus short and long keys. The hash cost
// is the denominator of every "ShBF halves the hash computations" claim; the
// bound-key form is what the filters pay per key.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "hash/hash_family.h"

namespace shbf {
namespace {

std::vector<std::string> MakeKeys(size_t count, size_t len) {
  Rng rng(0xbeefcafe + len);
  std::vector<std::string> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) keys.push_back(rng.NextBytes(len));
  return keys;
}

void BM_Hash(benchmark::State& state) {
  auto alg = static_cast<HashAlgorithm>(state.range(0));
  size_t len = static_cast<size_t>(state.range(1));
  HashFamily family(alg, 1, 42);
  auto keys = MakeKeys(1024, len);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.Hash(0, keys[i & 1023]));
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * len);
  state.SetLabel(HashAlgorithmName(alg));
}

BENCHMARK(BM_Hash)
    ->ArgsProduct({{static_cast<long>(HashAlgorithm::kMurmur3),
                    static_cast<long>(HashAlgorithm::kBobLookup3),
                    static_cast<long>(HashAlgorithm::kBobLookup2),
                    static_cast<long>(HashAlgorithm::kFnv1a)},
                   {8, 13, 64}});

void BM_HashFamilyKofN(benchmark::State& state) {
  // k separate evaluations on one key: each is a full murmur3 pass.
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  HashFamily family(HashAlgorithm::kMurmur3, k, 42);
  auto keys = MakeKeys(1024, static_cast<size_t>(state.range(1)));
  size_t i = 0;
  for (auto _ : state) {
    uint64_t acc = 0;
    for (uint32_t f = 0; f < k; ++f) acc ^= family.Hash(f, keys[i & 1023]);
    benchmark::DoNotOptimize(acc);
    ++i;
  }
}

BENCHMARK(BM_HashFamilyKofN)
    ->Args({2, 13})
    ->Args({3, 13})
    ->Args({5, 13})
    ->Args({8, 13})
    ->Args({16, 13})
    ->Args({5, 64});

void BM_HashFamilyBoundKofN(benchmark::State& state) {
  // The per-key hashing bill a filter pays: k evaluations through one bound
  // key, so the key bytes are mixed once and each function is a finish.
  // ShBF_M at k = 8 evaluates 5 functions, a Bloom filter 8.
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  HashFamily family(HashAlgorithm::kMurmur3, k, 42);
  auto keys = MakeKeys(1024, static_cast<size_t>(state.range(1)));
  size_t i = 0;
  for (auto _ : state) {
    const auto h = family.Bind(keys[i & 1023]);
    uint64_t acc = 0;
    for (uint32_t f = 0; f < k; ++f) acc ^= h(f);
    benchmark::DoNotOptimize(acc);
    ++i;
  }
}

BENCHMARK(BM_HashFamilyBoundKofN)
    ->Args({3, 13})
    ->Args({5, 13})
    ->Args({8, 13})
    ->Args({5, 64});

}  // namespace
}  // namespace shbf
