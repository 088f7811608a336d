#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace shbf {
namespace obs {

namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

/// Metric names reach Prometheus as [a-zA-Z0-9_:]*; everything else (the
/// dots in our catalog, mostly) flattens to '_'.
std::string PrometheusName(std::string_view name) {
  std::string out = "shbf_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// JSON string escaping for metric names (conservative: names are ASCII
/// identifiers, but the format must not break if one is not).
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

}  // namespace

bool Enabled() {
  if constexpr (!kCompiledIn) return false;
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

namespace internal {

size_t CellIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kCells;
  return index;
}

}  // namespace internal

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank target (1-based), then walk the buckets.
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * count + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t before = seen;
    seen += buckets[i];
    if (seen < target) continue;
    // Interpolate inside bucket i: (lower, upper] with bucket 0 = [0, 1].
    const double upper = static_cast<double>(BucketUpperBound(i));
    const double lower = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
    const double within =
        static_cast<double>(target - before) / static_cast<double>(buckets[i]);
    return lower + (upper - lower) * within;
  }
  return static_cast<double>(BucketUpperBound(kNumBuckets - 1));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const Cell& cell : cells_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      const uint64_t n = cell.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    snap.sum += cell.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name,
                                       uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void MetricsSnapshot::SortByName() {
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(gauges.begin(), gauges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(histograms.begin(), histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n";
  AppendF(&out, "  \"uptime_seconds\": %" PRIu64 ",\n", uptime_seconds);
  out += "  \"version\": \"" + JsonEscape(version) + "\",\n";
  out += "  \"cpu\": \"" + JsonEscape(cpu) + "\",\n";
  out += "  \"counters\": {\n";
  for (size_t i = 0; i < counters.size(); ++i) {
    AppendF(&out, "    \"%s\": %" PRIu64 "%s\n",
            JsonEscape(counters[i].first).c_str(), counters[i].second,
            i + 1 < counters.size() ? "," : "");
  }
  out += "  },\n  \"gauges\": {\n";
  for (size_t i = 0; i < gauges.size(); ++i) {
    AppendF(&out, "    \"%s\": %" PRId64 "%s\n",
            JsonEscape(gauges[i].first).c_str(), gauges[i].second,
            i + 1 < gauges.size() ? "," : "");
  }
  out += "  },\n  \"histograms\": {\n";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += "    \"" + JsonEscape(h.name) + "\": {";
    AppendF(&out, "\"count\": %" PRIu64 ", \"sum\": %" PRIu64, h.count, h.sum);
    AppendF(&out, ", \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"p999\": %.1f",
            h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99),
            h.Quantile(0.999));
    // Sparse bucket map: "le" upper bound -> count, zero buckets omitted.
    out += ", \"buckets\": {";
    bool first = true;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      AppendF(&out, "%s\"%" PRIu64 "\": %" PRIu64, first ? "" : ", ",
              HistogramSnapshot::BucketUpperBound(b), h.buckets[b]);
      first = false;
    }
    out += "}}";
    out += i + 1 < histograms.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  AppendF(&out, "# TYPE shbf_uptime_seconds gauge\nshbf_uptime_seconds %" PRIu64
                "\n",
          uptime_seconds);
  out += "# TYPE shbf_build_info gauge\nshbf_build_info{version=\"" + version +
         "\",cpu=\"" + cpu + "\"} 1\n";
  for (const auto& [name, value] : counters) {
    const std::string p = PrometheusName(name);
    AppendF(&out, "# TYPE %s counter\n%s %" PRIu64 "\n", p.c_str(), p.c_str(),
            value);
  }
  for (const auto& [name, value] : gauges) {
    const std::string p = PrometheusName(name);
    AppendF(&out, "# TYPE %s gauge\n%s %" PRId64 "\n", p.c_str(), p.c_str(),
            value);
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string p = PrometheusName(h.name);
    AppendF(&out, "# TYPE %s histogram\n", p.c_str());
    // Cumulative buckets up to the last nonzero one, then +Inf.
    size_t last = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (h.buckets[b] != 0) last = b;
    }
    uint64_t cumulative = 0;
    for (size_t b = 0; b <= last; ++b) {
      cumulative += h.buckets[b];
      AppendF(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", p.c_str(),
              HistogramSnapshot::BucketUpperBound(b), cumulative);
    }
    AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", p.c_str(), h.count);
    AppendF(&out, "%s_sum %" PRIu64 "\n", p.c_str(), h.sum);
    AppendF(&out, "%s_count %" PRIu64 "\n", p.c_str(), h.count);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->Snapshot();
    h.name = name;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace obs
}  // namespace shbf
