#include "obs/trace_ring.h"

#include <cinttypes>

namespace shbf {
namespace obs {

RequestTraceRing::RequestTraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void RequestTraceRing::Record(RequestTrace trace) {
  bool slow = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    trace.seq = next_seq_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(trace);
    } else {
      ring_[trace.seq % capacity_] = trace;
    }
    if (slow_threshold_us_ != 0 && trace.handle_us >= slow_threshold_us_) {
      ++slow_count_;
      slow = true;
    }
  }
  if (slow && slow_sink_ != nullptr) {
    // Outside the lock: stderr writes must not serialize the connection
    // threads.
    std::fprintf(slow_sink_,
                 "[shbf slow] seq=%" PRIu64 " conn=%" PRIu64
                 " op=%s keys=%" PRIu32 " handle_us=%" PRIu64
                 " bytes_in=%" PRIu64 " bytes_out=%" PRIu64 "\n",
                 trace.seq, trace.connection_id,
                 trace.opcode_name != nullptr ? trace.opcode_name : "?",
                 trace.key_count, trace.handle_us, trace.bytes_in,
                 trace.bytes_out);
  }
}

std::vector<RequestTrace> RequestTraceRing::Recent(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t held = ring_.size();
  const size_t want = (max == 0 || max > held) ? held : max;
  std::vector<RequestTrace> out;
  out.reserve(want);
  // Oldest surviving seq is next_seq_ - held; emit the last `want`.
  for (uint64_t seq = next_seq_ - want; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % capacity_]);
  }
  return out;
}

uint64_t RequestTraceRing::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t RequestTraceRing::slow_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_count_;
}

}  // namespace obs
}  // namespace shbf
