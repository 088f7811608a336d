// Runtime metrics for the serving stack: named counters, gauges, and
// log2-bucketed latency histograms behind a process-global registry.
//
// Design constraints (ISSUE 10):
//  * The hot path must cost one relaxed atomic increment and contend with
//    nothing. Counters and histograms are sharded across cache-line-padded
//    cells; a thread picks its cell once (thread-local) and never shares a
//    line with another writer. Readers merge the cells on demand — reads
//    are rare (METRICS frames, dump thread), writes are per-key-batch.
//  * Instrumentation must be provably removable. Two layers:
//      - runtime: obs::SetEnabled(false) turns every increment AND every
//        call-site clock read into a single relaxed bool load
//        (`serve_throughput --compare-metrics` gates this path within 3%
//        of compiled-out);
//      - compile time: -DSHBF_NO_METRICS (CMake: -DSHBF_DISABLE_METRICS=ON)
//        makes kCompiledIn a constant false, so the bodies below fold to
//        nothing and Enabled() short-circuits callers' timing code.
//  * Histograms use fixed power-of-two buckets (bucket i counts values in
//    (2^(i-1), 2^i], bucket 0 counts 0 and 1), so recording is a shift and
//    an increment — no comparisons, no configuration, and any two
//    snapshots merge bucket-for-bucket. Quantiles (p50/p90/p99/p99.9)
//    interpolate inside the hit bucket; with ~2x-wide buckets the estimate
//    is within 2x of truth, which is what a latency dashboard needs.
//
// Naming convention: "<layer>.<what>[_<unit>][_total]" — e.g.
// "server.handle_us.query", "engine.fastpath_batches_total". The full
// catalog lives in docs/observability.md.

#ifndef SHBF_OBS_METRICS_H_
#define SHBF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shbf {
namespace obs {

/// False when the instrumentation was compiled out (-DSHBF_NO_METRICS).
#ifdef SHBF_NO_METRICS
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Runtime kill switch (default on). Callers MUST consult Enabled() before
/// doing work that only feeds metrics (clock reads, size sums); the
/// primitives below also check it, so a disabled registry records nothing.
bool Enabled();
void SetEnabled(bool enabled);

/// Writer cells per metric. Enough that 8 worker threads rarely collide;
/// small enough that a histogram stays a few KiB.
inline constexpr size_t kCells = 16;

/// Histogram bucket count. Bucket 39 holds values > 2^38 (~4.6 minutes in
/// microseconds) — effectively +Inf for request latencies.
inline constexpr size_t kNumBuckets = 40;

namespace internal {

/// The cell this thread writes to. Threads are striped round-robin, so a
/// fixed worker pool spreads perfectly; short-lived threads reuse slots.
size_t CellIndex();

struct alignas(64) PaddedCounterCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonic counter. Increment is one relaxed fetch_add on a
/// thread-private cache line.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    if constexpr (!kCompiledIn) {
      (void)delta;
      return;
    }
    if (!Enabled()) return;
    cells_[internal::CellIndex()].value.fetch_add(delta,
                                                  std::memory_order_relaxed);
  }

  /// Merged value. Relaxed loads: the result is a consistent-enough sum
  /// for monitoring, exact once writers quiesce (what the parity tests do).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::PaddedCounterCell, kCells> cells_;
};

/// Point-in-time value (queue depths, last-drain duration). Single cell:
/// gauges are set rarely, from one site.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    if constexpr (!kCompiledIn) {
      (void)value;
      return;
    }
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void Add(int64_t delta) {
    if constexpr (!kCompiledIn) {
      (void)delta;
      return;
    }
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Merged read-side view of one histogram. buckets[i] counts values in
/// (2^(i-1), 2^i]; buckets[0] counts 0 and 1; the last bucket absorbs
/// everything larger.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  /// Upper bound of bucket i (inclusive), i.e. the Prometheus `le`.
  static uint64_t BucketUpperBound(size_t i) { return uint64_t{1} << i; }

  /// Quantile estimate, q in [0, 1]: nearest-rank to the hit bucket, then
  /// linear interpolation between the bucket's bounds. Returns 0 when
  /// empty.
  double Quantile(double q) const;
};

/// Log2-bucketed histogram. Record() is: find bucket (a bit-scan), two
/// relaxed fetch_adds (bucket + sum) on a thread-private cell.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static size_t BucketIndex(uint64_t value) {
    if (value <= 1) return 0;
    // Smallest i with value <= 2^i  ==  bit_width(value - 1).
    const size_t width =
        64 - static_cast<size_t>(__builtin_clzll(value - 1));
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  void Record(uint64_t value) {
    if constexpr (!kCompiledIn) {
      (void)value;
      return;
    }
    if (!Enabled()) return;
    Cell& cell = cells_[internal::CellIndex()];
    cell.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Merges every cell into one snapshot (name left empty — the registry
  /// fills it).
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Cell, kCells> cells_;
};

/// Full registry snapshot — what a METRICS frame, a --metrics-dump file,
/// and `shbf_cli remote metrics` all carry. Entries are sorted by name.
struct MetricsSnapshot {
  uint64_t uptime_seconds = 0;
  std::string version;  ///< kShbfVersion of the producing binary
  std::string cpu;      ///< HostCpu() of the producing host
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter lookup; `fallback` when absent.
  uint64_t CounterValue(std::string_view name, uint64_t fallback = 0) const;

  /// Histogram lookup; nullptr when absent.
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// Re-sorts counters/gauges/histograms by name (after manual inserts).
  void SortByName();

  /// Pretty-printed JSON object (histograms as {count, sum, p50..p999,
  /// buckets}); schema documented in docs/observability.md.
  std::string ToJson() const;

  /// Prometheus text exposition format, names prefixed "shbf_" with dots
  /// flattened to underscores; histograms as cumulative _bucket{le=...}.
  std::string ToPrometheus() const;
};

/// Name → metric map. Get* registers on first use and returns a pointer
/// that stays valid for the registry's lifetime — call sites resolve once
/// (member / static local) and increment lock-free forever after.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Merged view of everything registered (uptime/version/cpu left
  /// for the caller — the server stamps them).
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace shbf

#endif  // SHBF_OBS_METRICS_H_
