// Request-trace ring + slow-request log.
//
// Every answered frame leaves one fixed-size RequestTrace record in a
// bounded ring (newest overwrite oldest), so an operator inspecting a
// misbehaving server sees the last ~1024 requests with their opcode, key
// count and handle time — without any log volume in steady state. Frames
// whose handle time crosses the slow threshold additionally emit one
// human-readable stderr line at record time:
//
//   [shbf slow] seq=812 conn=3 op=QUERY keys=8192 handle_us=15021
//               bytes_in=91430 bytes_out=1029
//
// Record() takes a mutex: the per-frame cost (~20ns uncontended) is noise
// next to the syscalls that bracket every frame, and it keeps the ring
// trivially TSan-clean. The serving hot path only calls Record() when
// obs::Enabled() — the --compare-metrics gate covers this path too.

#ifndef SHBF_OBS_TRACE_RING_H_
#define SHBF_OBS_TRACE_RING_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

namespace shbf {
namespace obs {

/// One answered frame. `opcode_name` points at a static string (the wire
/// layer's opcode table) or nullptr for unparseable frames.
struct RequestTrace {
  uint64_t seq = 0;  ///< assigned by Record(), monotonic per ring
  uint64_t connection_id = 0;
  uint8_t opcode = 0;
  const char* opcode_name = nullptr;
  uint32_t key_count = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t handle_us = 0;
};

class RequestTraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RequestTraceRing(size_t capacity = kDefaultCapacity);
  RequestTraceRing(const RequestTraceRing&) = delete;
  RequestTraceRing& operator=(const RequestTraceRing&) = delete;

  /// Slow threshold in microseconds (on handle time). 0 disables the slow
  /// log (the ring still records).
  void set_slow_threshold_us(uint64_t us) { slow_threshold_us_ = us; }
  uint64_t slow_threshold_us() const { return slow_threshold_us_; }

  /// Destination of slow-log lines (default stderr; tests redirect).
  void set_slow_sink(FILE* sink) { slow_sink_ = sink; }

  /// Stamps trace.seq and stores it; emits the slow-log line when the
  /// threshold is set and crossed.
  void Record(RequestTrace trace);

  /// The most recent traces, oldest first, at most `max` (0 = all held).
  std::vector<RequestTrace> Recent(size_t max = 0) const;

  uint64_t recorded() const;    ///< total Record() calls
  uint64_t slow_count() const;  ///< traces that crossed the threshold

 private:
  const size_t capacity_;
  uint64_t slow_threshold_us_ = 0;
  FILE* slow_sink_ = stderr;

  mutable std::mutex mu_;
  std::vector<RequestTrace> ring_;  ///< ring_[seq % capacity_]
  uint64_t next_seq_ = 0;
  uint64_t slow_count_ = 0;
};

}  // namespace obs
}  // namespace shbf

#endif  // SHBF_OBS_TRACE_RING_H_
