// Machine-readable bench output: every throughput bench accepts
// --json=<path> and appends rows (workload, keys/s, latency percentiles)
// through this helper, so CI can archive perf trajectories (e.g.
// BENCH_multiset.json) instead of scraping CSV from logs.
//
// Deliberately tiny: flat rows of string/number fields, rendered as
//   {"bench": "<name>", "host": {"cpu": ..., "hw_concurrency": N},
//    "rows": [{...}, ...]}
// with no external dependency. Field order is insertion order, so diffs of
// committed reports stay readable. The host object stamps where the numbers
// were measured; tools/check_bench_trend.py refuses to compare reports from
// differing hosts.

#ifndef SHBF_BENCH_UTIL_JSON_REPORT_H_
#define SHBF_BENCH_UTIL_JSON_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

namespace shbf {

/// One report row: ordered (field, rendered-JSON-value) pairs.
class JsonRow {
 public:
  JsonRow& Set(std::string_view field, std::string_view value);
  JsonRow& Set(std::string_view field, const char* value) {
    return Set(field, std::string_view(value));
  }
  JsonRow& Set(std::string_view field, double value);
  JsonRow& Set(std::string_view field, uint64_t value);

  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The whole report; rows render in insertion order.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  JsonRow& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string Render() const;

  /// Writes Render() to `path` (no-op returning OK when `path` is empty, so
  /// benches can pass the --json flag value through unconditionally).
  Status WriteToFile(const std::string& path) const;

 private:
  std::string bench_name_;
  std::vector<JsonRow> rows_;
};

/// Collects per-chunk latencies during a timed run and answers percentile
/// queries, for the p50/p99 columns of the JSON reports.
class LatencyRecorder {
 public:
  void Record(double seconds) { samples_.push_back(seconds); }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  /// The `percentile`-th (0..100) sample in seconds; 0 when empty.
  double PercentileSeconds(double percentile) const;

  /// Raw samples, for merging per-thread recorders into one distribution.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace shbf

#endif  // SHBF_BENCH_UTIL_JSON_REPORT_H_
