#include "bench_util/json_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/file_io.h"
#include "core/version.h"

namespace shbf {
namespace {

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

JsonRow& JsonRow::Set(std::string_view field, std::string_view value) {
  fields_.emplace_back(std::string(field),
                       "\"" + EscapeJson(value) + "\"");
  return *this;
}

JsonRow& JsonRow::Set(std::string_view field, double value) {
  char buffer[64];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "null");  // JSON has no inf/nan
  }
  fields_.emplace_back(std::string(field), buffer);
  return *this;
}

JsonRow& JsonRow::Set(std::string_view field, uint64_t value) {
  fields_.emplace_back(std::string(field), std::to_string(value));
  return *this;
}

std::string JsonRow::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + EscapeJson(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

std::string JsonReport::Render() const {
  // The host stamp: numbers from different machines are not comparable,
  // so every report carries where it was measured and check_bench_trend.py
  // refuses to diff reports whose stamps disagree.
  std::string out = "{\n  \"bench\": \"" + EscapeJson(bench_name_) +
                    "\",\n  \"host\": {\"cpu\": \"" +
                    EscapeJson(HostCpu()) + "\", \"hw_concurrency\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    "},\n  \"rows\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out += "    " + rows_[i].Render();
    if (i + 1 < rows_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

Status JsonReport::WriteToFile(const std::string& path) const {
  if (path.empty()) return Status::Ok();
  return WriteStringToFile(path, Render());
}

double LatencyRecorder::PercentileSeconds(double percentile) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(std::max(percentile, 0.0), 100.0);
  double nearest_rank = std::ceil(clamped / 100.0 * sorted.size()) - 1;
  if (nearest_rank < 0) nearest_rank = 0;
  const size_t rank = std::min(sorted.size() - 1,
                               static_cast<size_t>(nearest_rank));
  return sorted[rank];
}

}  // namespace shbf
