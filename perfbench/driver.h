// The closed-loop load driver: one thread, kConnections pipelined
// connections, each holding a fixed window of request frames in flight and
// sending the next only when a response has come back (as ShbfClient
// callers do, but pipelined). Every response is checked against the
// oracle as it arrives.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"
#include "workload.h"

namespace perfbench {

struct DriveResult {
  uint64_t frames_attempted = 0;
  uint64_t frames_failed = 0;  ///< non-OK status, wire error, dropped conn
  uint64_t mismatches = 0;     ///< answered, but not as the oracle says
  uint64_t keys = 0;           ///< keys of the answered frames
  double seconds = 0;          ///< first send → last response
  double cpu_seconds = 0;      ///< process CPU time over the same interval
  std::vector<double> read_us;  ///< send → response of read frames
  std::vector<double> add_us;   ///< send → response of ADD frames
  std::string first_error;

  void Merge(const DriveResult& other);
};

/// Sends `schedule[c]` on connection c, with `window` frames in flight per
/// connection. With `seconds` > 0 each connection cycles through its
/// schedule until that much time has passed; with 0 it sends its schedule
/// once. With a tracer, records one "client.frame" span per frame.
DriveResult Drive(const std::vector<int>& fds,
                  const std::vector<std::vector<const Frame*>>& schedule,
                  size_t window, double seconds, Tracer* tracer);

/// CPU time of the whole process so far, in seconds: the driver thread,
/// every server thread, and the kernel work done on their behalf (the
/// loopback TCP path included). Time a thread waits for a CPU, or loses
/// to another guest of the host, does not count: this measures the work
/// the code does, not how much of a shared host it got.
double ProcessCpuSeconds();

/// Value at quantile q (0..1) by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
