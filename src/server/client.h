// ShbfClient — the client side of the shbf_server wire protocol
// (protocol.h, docs/serving.md). One blocking TCP connection, one
// in-flight request at a time; batches of keys per frame. Shared by
// `shbf_cli remote` and bench/serve_throughput.cc — and small enough to
// embed anywhere a remote filter probe is wanted.
//
// Thread safety: none — one ShbfClient per thread (the server happily
// accepts as many connections as you open).

#ifndef SHBF_SERVER_CLIENT_H_
#define SHBF_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"
#include "server/protocol.h"

namespace shbf {

class ShbfClient {
 public:
  ShbfClient() = default;
  ~ShbfClient();

  ShbfClient(const ShbfClient&) = delete;
  ShbfClient& operator=(const ShbfClient&) = delete;

  /// Connects and performs the HELLO handshake. On success
  /// server_version() carries the server's build string.
  Status Connect(const std::string& host, uint16_t port);

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// "shbf_server 0.6.0" — from the HELLO response.
  const std::string& server_version() const { return server_version_; }

  /// Batched membership: `results` is resized to keys.size(); entry i is
  /// 1 iff the served filter (possibly) contains keys[i].
  Status Query(std::string_view filter, const std::vector<std::string>& keys,
               std::vector<uint8_t>* results);

  /// Batched multiplicity (COUNT mode). Fails with kFailedPrecondition if
  /// the served filter is not a multiplicity filter.
  Status QueryCount(std::string_view filter,
                    const std::vector<std::string>& keys,
                    std::vector<uint64_t>* counts);

  /// Adds every key; `*added` (optional) receives the server's count.
  Status Add(std::string_view filter, const std::vector<std::string>& keys,
             uint64_t* added = nullptr);

  /// Removes keys; `removed` (optional) gets a per-key 1 (removed) / 0
  /// (reported not-found). Fails with kFailedPrecondition when the served
  /// filter does not advertise kRemove.
  Status Remove(std::string_view filter, const std::vector<std::string>& keys,
                std::vector<uint8_t>* removed = nullptr);

  /// One served filter's stats (the STATS / LIST wire record).
  struct FilterInfo {
    std::string serve_name;     ///< name on the server (empty from Stats)
    std::string registry_name;  ///< e.g. "sharded/shbf_m"
    uint64_t elements = 0;
    uint64_t memory_bytes = 0;
    uint32_t capabilities = 0;
  };

  Status Stats(std::string_view filter, FilterInfo* info);
  Status List(std::vector<FilterInfo>* filters);

  /// Batched multiset query: `results` is resized to keys.size(); entry i
  /// receives the ascending catalog set ids that (possibly) contain
  /// keys[i]. Fails with kFailedPrecondition when the server serves no
  /// catalog (WHICH_SETS opcode, protocol v2).
  Status WhichSets(const std::vector<std::string>& keys,
                   std::vector<std::vector<uint32_t>>* results);

  /// Adds keys to catalog set `set`; the server maintains the index
  /// incrementally (a sliced set's bits are set in its slice).
  Status IndexAdd(std::string_view set, const std::vector<std::string>& keys,
                  uint64_t* added = nullptr);

  /// Drops catalog set `set` from the index and the catalog; `*remaining`
  /// (optional) receives the surviving set count.
  Status IndexDrop(std::string_view set, uint64_t* remaining = nullptr);

  /// The MULTISET_LIST record: index shape plus one row per catalog set.
  struct MultisetInfo {
    struct Set {
      uint32_t id = 0;
      std::string name;
      std::string registry_name;
      uint64_t elements = 0;
    };
    std::vector<Set> sets;
    uint32_t slices = 0;     ///< slices probed per query (wire: `trees`)
    uint32_t scan_sets = 0;  ///< sets probed one by one
    uint32_t levels = 0;     ///< always 1: the index is flat
    uint64_t summary_memory_bytes = 0;  ///< the index's slices and templates
  };

  Status MultisetList(MultisetInfo* info);

  /// The METRICS response (protocol v3): uptime, build version, host CPU
  /// stamp, and the full registry snapshot — including the four
  /// core counters as "server.*_total" entries, bit-identical to the
  /// server's in-process counters() at response time. Fails with
  /// kInvalidArgument against a pre-v3 server (UNKNOWN_OPCODE).
  struct ServerMetrics {
    uint64_t uptime_seconds = 0;
    std::string version;
    std::string cpu;  ///< the server host's HostCpu() stamp
    obs::MetricsSnapshot snapshot;  ///< counters / gauges / histograms
  };

  Status Metrics(ServerMetrics* metrics);

  /// Serializes the served filter to `path` on the SERVER's filesystem
  /// (empty path = the server's remembered path for this filter).
  Status Snapshot(std::string_view filter, std::string_view path,
                  uint64_t* bytes_written = nullptr,
                  std::string* path_used = nullptr);

  /// Replaces the served filter from a blob on the server's filesystem.
  Status Reload(std::string_view filter, std::string_view path,
                uint64_t* elements = nullptr);

 private:
  /// Sends `frame`, reads one response, maps wire errors to Status, and
  /// leaves the OK payload in `*payload` (backed by `*response_body`).
  Status RoundTrip(const std::string& frame, std::string* response_body,
                   std::string_view* payload);

  Status ReadStatsPayload(ByteReader* reader, bool with_serve_name,
                          FilterInfo* info);

  int fd_ = -1;
  std::string server_version_;
};

}  // namespace shbf

#endif  // SHBF_SERVER_CLIENT_H_
