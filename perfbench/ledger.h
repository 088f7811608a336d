// The traced run's outside-in ledger. Spans are recorded by the
// benchmark's own code around calls into each layer's public functions
// (nothing inside src/ is instrumented for this), kept in memory, written
// out at the end, and reduced to self time per layer: a span's duration
// minus the part of it its child spans cover.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span named `name` (a string literal) for request `id`, under
  /// `parent` (-1 for a root); returns its handle.
  int32_t Begin(const char* name, uint64_t id, int32_t parent, uint64_t keys);
  void End(int32_t span);

  /// Records an already-closed span.
  void Record(const char* name, uint64_t id, int32_t parent,
              Clock::time_point start, Clock::time_point end, uint64_t keys);

  struct Layer {
    double self_ns = 0;
    uint64_t spans = 0;
    uint64_t keys = 0;
  };
  /// Self time, span count and keys per span name.
  std::map<std::string, Layer> SelfTimes() const;

  /// One JSON object per line: name, id, parent, start/end in ns since the
  /// tracer was created, keys.
  shbf::Status WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    int32_t parent;
    Clock::time_point start;
    Clock::time_point end;
    uint64_t keys;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// What replaying one pass of the pool through the layers in-process
/// measured, beyond the spans themselves.
struct Replay {
  uint64_t frames = 0;
  uint64_t keys = 0;
  uint64_t answer_bytes = 0;      ///< response bodies the server would send
  uint64_t multiset_probes = 0;   ///< MultiSetIndex::stats().probes delta
  uint64_t multiset_pruned = 0;   ///< multiset.pruned_keys_total delta
  uint64_t multiset_probes_total = 0;  ///< multiset.probes_total delta
};

/// Replays each read frame of `pool` as the server handles it — encode the
/// request, decode its key list, answer it on the twin (BatchQueryEngine,
/// or MultiSetIndex for the catalog), encode and parse the answer — under
/// one "frame" root span per frame, then times the layers below the
/// engine on the same keys: the sharded wrapper, per-key Contains and
/// HashFamily::HashPair. A first untraced pass warms the caches.
Replay ReplayLayers(const WorkloadSpec& spec, const Twin& twin,
                    const Pool& pool, Tracer* tracer);

/// ns per Add into a fresh filter of the workload's geometry.
double AddNsPerKey(const WorkloadSpec& spec, uint64_t seed);

/// Histogram `name` over the interval between two snapshots.
shbf::obs::HistogramSnapshot HistogramDelta(
    const shbf::obs::MetricsSnapshot& before,
    const shbf::obs::MetricsSnapshot& after, const std::string& name);

uint64_t CounterDelta(const shbf::obs::MetricsSnapshot& before,
                      const shbf::obs::MetricsSnapshot& after,
                      const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
