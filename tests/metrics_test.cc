// Unit tests for the src/obs/ metrics subsystem: bucket boundaries,
// quantile estimation, sharded-cell merging under concurrency, registry
// pointer stability, the runtime enable toggle, snapshot rendering (JSON +
// Prometheus), and the request-trace ring with its slow-request log.
//
// Everything here uses private registries and histograms, not
// MetricsRegistry::Global(), so the assertions stay exact no matter what
// other instrumentation ran in this process.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_ring.h"

namespace shbf {
namespace obs {
namespace {

// Restores the runtime toggle even when an assertion aborts the test body.
class EnabledGuard {
 public:
  EnabledGuard() : was_(Enabled()) { SetEnabled(true); }
  ~EnabledGuard() { SetEnabled(was_); }

 private:
  bool was_;
};

TEST(HistogramBuckets, BoundariesMatchTheDocumentedScheme) {
  // Bucket 0 holds 0 and 1; bucket i holds (2^(i-1), 2^i].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 3u);
  EXPECT_EQ(Histogram::BucketIndex(9), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11u);
  // Everything past the last bound collapses into the final bucket.
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), kNumBuckets - 1);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(10), 1024u);
}

TEST(HistogramBuckets, EveryValueLandsInsideItsBucketBounds) {
  for (uint64_t value : {0ull, 1ull, 2ull, 3ull, 7ull, 63ull, 64ull, 65ull,
                         999ull, 4096ull, 123456789ull}) {
    const size_t i = Histogram::BucketIndex(value);
    EXPECT_LE(value, HistogramSnapshot::BucketUpperBound(i)) << value;
    if (i > 0) {
      EXPECT_GT(value, HistogramSnapshot::BucketUpperBound(i - 1)) << value;
    }
  }
}

TEST(Histogram, SnapshotMergesCountSumAndBuckets) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(100);   // bucket 7 (64, 128]
  histogram.Record(128);   // bucket 7
  histogram.Record(5000);  // bucket 13 (4096, 8192]
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_EQ(snapshot.sum, 0u + 1u + 100u + 128u + 5000u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
  EXPECT_EQ(snapshot.buckets[7], 2u);
  EXPECT_EQ(snapshot.buckets[13], 1u);
}

TEST(Histogram, QuantilesBracketTheRecordedValues) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  Histogram histogram;
  // 90 fast requests around 100us, 10 slow ones around 10000us.
  for (int i = 0; i < 90; ++i) histogram.Record(100);
  for (int i = 0; i < 10; ++i) histogram.Record(10000);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  // The p50 must land in 100's bucket (64, 128]; the p99 in 10000's
  // (8192, 16384]. Log buckets bound the estimate within 2x.
  EXPECT_GT(snapshot.Quantile(0.50), 64.0);
  EXPECT_LE(snapshot.Quantile(0.50), 128.0);
  EXPECT_GT(snapshot.Quantile(0.99), 8192.0);
  EXPECT_LE(snapshot.Quantile(0.99), 16384.0);
  // Monotone in q.
  EXPECT_LE(snapshot.Quantile(0.50), snapshot.Quantile(0.90));
  EXPECT_LE(snapshot.Quantile(0.90), snapshot.Quantile(0.999));
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.Snapshot().count, 0u);
  EXPECT_EQ(histogram.Snapshot().Quantile(0.99), 0.0);
}

TEST(Counter, ConcurrentIncrementsMergeExactly) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
}

TEST(Counter, DeltaIncrements) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  Counter counter;
  counter.Increment(41);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(-5);
  EXPECT_EQ(gauge.Value(), -5);
}

TEST(EnableToggle, DisabledPrimitivesRecordNothing) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  Counter counter;
  Histogram histogram;
  Gauge gauge;
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  counter.Increment();
  histogram.Record(100);
  gauge.Set(9);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
  EXPECT_EQ(gauge.Value(), 0);
  SetEnabled(true);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 1u);
}

TEST(Registry, PointersAreStableAndPerName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.a_total");
  Counter* b = registry.GetCounter("test.b_total");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.GetCounter("test.a_total"), a);
  Histogram* h = registry.GetHistogram("test.latency_us");
  EXPECT_EQ(registry.GetHistogram("test.latency_us"), h);
  EXPECT_NE(registry.GetGauge("test.depth"), nullptr);
  // Same name, different kind: distinct maps, no collision.
  EXPECT_NE(static_cast<void*>(registry.GetCounter("test.same")),
            static_cast<void*>(registry.GetGauge("test.same")));
}

TEST(Registry, SnapshotCarriesEverythingSorted) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  MetricsRegistry registry;
  registry.GetCounter("test.z_total")->Increment(3);
  registry.GetCounter("test.a_total")->Increment(1);
  registry.GetGauge("test.depth")->Set(4);
  registry.GetHistogram("test.latency_us")->Record(100);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "test.a_total");  // sorted
  EXPECT_EQ(snapshot.CounterValue("test.z_total"), 3u);
  EXPECT_EQ(snapshot.CounterValue("absent", 77), 77u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 4);
  const HistogramSnapshot* h = snapshot.FindHistogram("test.latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(snapshot.FindHistogram("absent"), nullptr);
}

TEST(Registry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(Rendering, JsonCarriesCountersAndQuantiles) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  MetricsRegistry registry;
  registry.GetCounter("test.frames_total")->Increment(7);
  registry.GetHistogram("test.latency_us")->Record(100);
  MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.version = "1.2.3";
  snapshot.cpu = "x86-64 avx2";
  snapshot.uptime_seconds = 5;
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"test.frames_total\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"version\": \"1.2.3\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu\": \"x86-64 avx2\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"test.latency_us\""), std::string::npos);
}

TEST(Rendering, PrometheusFlattensNamesAndEmitsCumulativeBuckets) {
  if (!kCompiledIn) GTEST_SKIP() << "metrics compiled out";
  EnabledGuard guard;
  MetricsRegistry registry;
  registry.GetCounter("test.frames_total")->Increment(7);
  Histogram* histogram = registry.GetHistogram("test.latency_us");
  histogram->Record(100);
  histogram->Record(100);
  histogram->Record(5000);
  MetricsSnapshot snapshot = registry.Snapshot();
  const std::string prom = snapshot.ToPrometheus();
  EXPECT_NE(prom.find("shbf_test_frames_total 7"), std::string::npos) << prom;
  // Cumulative: the 128 bound already covers both 100us samples; +Inf all.
  EXPECT_NE(prom.find("shbf_test_latency_us_bucket{le=\"128\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("shbf_test_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("shbf_test_latency_us_count 3"), std::string::npos);
}

// ---- trace ring -----------------------------------------------------------

RequestTrace MakeTrace(uint64_t handle_us) {
  RequestTrace trace;
  trace.connection_id = 7;
  trace.opcode = 3;
  trace.opcode_name = "QUERY";
  trace.key_count = 16;
  trace.bytes_in = 100;
  trace.bytes_out = 50;
  trace.handle_us = handle_us;
  return trace;
}

TEST(TraceRing, RecordsInOrderAndWrapsOldestFirst) {
  RequestTraceRing ring(4);
  for (uint64_t i = 0; i < 6; ++i) {
    RequestTrace trace = MakeTrace(i);
    ring.Record(trace);
  }
  EXPECT_EQ(ring.recorded(), 6u);
  const std::vector<RequestTrace> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 4u);  // capacity bounds retention
  EXPECT_EQ(recent.front().handle_us, 2u);  // oldest surviving
  EXPECT_EQ(recent.back().handle_us, 5u);   // newest
  EXPECT_EQ(recent.back().seq, 5u);
  const std::vector<RequestTrace> last_two = ring.Recent(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two.front().handle_us, 4u);
}

TEST(TraceRing, SlowThresholdCountsAndLogs) {
  RequestTraceRing ring;
  ring.set_slow_threshold_us(1000);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ring.set_slow_sink(sink);
  ring.Record(MakeTrace(10));     // fast: no line
  ring.Record(MakeTrace(5000));   // slow: one line
  EXPECT_EQ(ring.slow_count(), 1u);
  EXPECT_EQ(ring.recorded(), 2u);
  std::rewind(sink);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), sink), nullptr);
  EXPECT_NE(std::strstr(line, "[shbf slow]"), nullptr) << line;
  EXPECT_NE(std::strstr(line, "op=QUERY"), nullptr) << line;
  EXPECT_NE(std::strstr(line, "handle_us=5000"), nullptr) << line;
  EXPECT_EQ(std::fgets(line, sizeof(line), sink), nullptr);  // only one
  std::fclose(sink);
}

TEST(TraceRing, ZeroThresholdNeverLogs) {
  RequestTraceRing ring;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ring.set_slow_sink(sink);
  ring.Record(MakeTrace(1000000));
  EXPECT_EQ(ring.slow_count(), 0u);
  std::rewind(sink);
  char line[8];
  EXPECT_EQ(std::fgets(line, sizeof(line), sink), nullptr);
  std::fclose(sink);
}

}  // namespace
}  // namespace obs
}  // namespace shbf
