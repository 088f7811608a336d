// shbf_server — the networked front end: serves filters over the wire
// protocol of docs/serving.md (src/server/). Filters come from serialized
// envelopes (--load) or are built empty from a spec (--build) and filled
// remotely via ADD frames.
//
//   shbf_server [--port=7457] [--bind=127.0.0.1] [--batch=32]
//               [--max-conns=N]
//               --load=<name>=<path>        (repeatable)
//               --build=<name>=<filter>[,keys=N][,bpk=B][,k=K][,shards=S]
//                                          [,delta=N][,scale]  (repeatable)
//
// Serving model: one blocking thread per connection (src/server/server.h).
//
// Prints one "serving N filter(s) on <addr>:<port>" line once the socket
// is bound (with --port=0 this is where the ephemeral port appears), then
// blocks until SIGINT/SIGTERM and shuts down cleanly — draining and
// joining every connection thread — so supervisors see exit code 0.
//
// Query it with `shbf_cli remote <addr>:<port> ...` or load-test it with
// `bench_serve_throughput --connect=<addr>:<port>`.

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/filter_registry.h"
#include "core/file_io.h"
#include "core/version.h"
#include "server/server.h"

namespace shbf {
namespace {

/// Self-pipe written by the signal handler; main blocks reading it.
int g_shutdown_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  // write() is async-signal-safe; best effort, the pipe never fills.
  [[maybe_unused]] ssize_t ignored = write(g_shutdown_pipe[1], &byte, 1);
}

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: shbf_server [options] --load=<name>=<path> | "
      "--build=<name>=<filter>[,opts]\n"
      "\n"
      "Serves registry filters over TCP (wire protocol: docs/serving.md).\n"
      "\n"
      "options:\n"
      "  --port=N            TCP port (default 7457; 0 = ephemeral,\n"
      "                      printed on the 'serving' line)\n"
      "  --bind=ADDR         IPv4 bind address (default 127.0.0.1)\n"
      "  --batch=N           engine group size per QUERY frame (default 32)\n"
      "  --max-conns=N       concurrent-connection ceiling; new sockets\n"
      "                      past it are accepted and closed (default 0 =\n"
      "                      unlimited)\n"
      "  --load=NAME=PATH    serve the envelope blob at PATH as NAME\n"
      "                      (repeatable; PATH becomes the default\n"
      "                      SNAPSHOT/RELOAD target). PATH=mmap:FILE maps\n"
      "                      a flat filter image instead and serves it\n"
      "                      zero-copy, read-only (docs/persistence.md)\n"
      "  --build=NAME=FILTER[,keys=N][,bpk=B][,k=K][,shards=S][,delta=N]"
      "[,scale]\n"
      "                      serve a freshly built (empty) FILTER as NAME;\n"
      "                      fill it remotely with ADD frames. Options:\n"
      "                      keys (capacity hint, default 1000000),\n"
      "                      bpk (bits/key, default 12), k (hashes),\n"
      "                      shards, delta (dynamic-wrapper budget),\n"
      "                      scale (auto-scaling generations)\n"
      "  --catalog=PATH      serve the SetCatalog blob at PATH behind a\n"
      "                      multiset index: WHICH_SETS answers \"which of\n"
      "                      these sets contain key k\", INDEX_ADD /\n"
      "                      INDEX_DROP maintain it (docs/multiset.md;\n"
      "                      build the blob with shbf_cli multiset build)\n"
      "  --metrics-dump=PATH[,SECONDS]\n"
      "                      write the metrics snapshot (the METRICS opcode\n"
      "                      payload, docs/observability.md) as JSON to PATH\n"
      "                      every SECONDS (default 60) and once at\n"
      "                      shutdown; each write goes to a temp file,\n"
      "                      is fsynced and renamed over PATH\n"
      "  --slow-request-ms=N log requests whose handle time exceeds N ms to\n"
      "                      stderr ('[shbf slow] ...'; default 0 = off)\n"
      "  --help              this text\n"
      "  --version           print the version and exit\n"
      "\n"
      "example:\n"
      "  shbf_cli build keys.txt edge.shbf --filter=shbf_m\n"
      "  shbf_server --port=7457 --load=edge=edge.shbf &\n"
      "  shbf_cli remote 127.0.0.1:7457 query edge keys.txt\n"
      "\n"
      "multiset example:\n"
      "  shbf_cli multiset build fleet.shbc eu=eu.txt us=us.txt ap=ap.txt\n"
      "  shbf_server --port=7457 --catalog=fleet.shbc &\n"
      "  shbf_cli remote 127.0.0.1:7457 which-sets keys.txt\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

/// Parses "<name>=<filter>[,keys=N][,bpk=B][,k=K][,shards=S][,delta=N]
/// [,scale]" and builds the (empty) filter.
Status BuildFromSpec(const std::string& arg, std::string* name,
                     std::unique_ptr<MembershipFilter>* out) {
  const size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("--build needs <name>=<filter>: " + arg);
  }
  *name = arg.substr(0, eq);
  std::string rest = arg.substr(eq + 1);
  std::string filter_name = rest;
  size_t expected_keys = 1000000;
  double bits_per_key = 12.0;
  uint32_t num_hashes = 8;
  uint32_t shards = 1;
  size_t delta = 0;
  bool scale = false;
  const size_t comma = rest.find(',');
  if (comma != std::string::npos) {
    filter_name = rest.substr(0, comma);
    std::string opts = rest.substr(comma + 1);
    while (!opts.empty()) {
      const size_t next = opts.find(',');
      std::string opt = opts.substr(0, next);
      opts = next == std::string::npos ? "" : opts.substr(next + 1);
      const size_t opt_eq = opt.find('=');
      const std::string key = opt.substr(0, opt_eq);
      const std::string value =
          opt_eq == std::string::npos ? "" : opt.substr(opt_eq + 1);
      if (key == "keys") {
        expected_keys = std::strtoull(value.c_str(), nullptr, 0);
      } else if (key == "bpk") {
        bits_per_key = std::atof(value.c_str());
      } else if (key == "k") {
        num_hashes = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else if (key == "shards") {
        shards = static_cast<uint32_t>(std::atoi(value.c_str()));
      } else if (key == "delta") {
        delta = std::strtoull(value.c_str(), nullptr, 0);
      } else if (key == "scale") {
        scale = true;
      } else {
        return Status::InvalidArgument("--build: unknown option '" + key +
                                       "'");
      }
    }
  }
  FilterSpec spec =
      FilterSpec::ForKeys(expected_keys, bits_per_key, num_hashes);
  spec.max_count = 8;
  spec.shards = shards;
  spec.delta_capacity = delta;
  spec.auto_scale = scale;
  return FilterRegistry::Global().Create(filter_name, spec, out);
}

/// Background writer for --metrics-dump: every `interval_seconds` (and once
/// more at destruction, after the server drained) it serializes
/// CollectMetrics() to JSON and replaces `path` through WriteStringToFile
/// (temp file, fsync, rename), so a scraper mid-read never sees a torn
/// file.
class MetricsDumper {
 public:
  MetricsDumper(const ShbfServer& server, std::string path,
                int interval_seconds)
      : server_(server),
        path_(std::move(path)),
        interval_(interval_seconds < 1 ? 1 : interval_seconds) {
    thread_ = std::thread([this] { Run(); });
  }

  ~MetricsDumper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // The final snapshot, after Stop() drained, so shutdown-time counters
    // land in the file supervisors collect.
    WriteOnce();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::seconds(interval_),
                       [this] { return stop_; })) {
        break;
      }
      lock.unlock();
      WriteOnce();
      lock.lock();
    }
  }

  void WriteOnce() {
    const Status s =
        WriteStringToFile(path_, server_.CollectMetrics().ToJson());
    if (!s.ok()) {
      std::fprintf(stderr, "warning: --metrics-dump: %s\n",
                   s.ToString().c_str());
    }
  }

  const ShbfServer& server_;
  const std::string path_;
  const int interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

int Main(int argc, char** argv) {
  ServerOptions options;
  options.port = 7457;
  std::string metrics_dump_path;
  int metrics_dump_interval = 60;
  std::vector<std::pair<std::string, std::string>> loads;   // name, path
  std::vector<std::string> builds;                          // raw --build args
  std::string catalog_path;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("shbf_server %s (protocol v%u)\n", kShbfVersion,
                  wire::kProtocolVersion);
      return 0;
    }
    if (ParseFlag(argv[i], "port", &value)) {
      const unsigned long port = std::strtoul(value.c_str(), nullptr, 0);
      if (port > 65535) {
        std::fprintf(stderr, "error: --port=%s is out of range (0-65535)\n",
                     value.c_str());
        return 2;
      }
      options.port = static_cast<uint16_t>(port);
    } else if (ParseFlag(argv[i], "bind", &value)) {
      options.bind_address = value;
    } else if (ParseFlag(argv[i], "batch", &value)) {
      options.batch_size = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "max-conns", &value)) {
      options.max_connections = std::strtoull(value.c_str(), nullptr, 0);
    } else if (ParseFlag(argv[i], "load", &value)) {
      const size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        std::fprintf(stderr, "error: --load needs <name>=<path>\n");
        return 2;
      }
      loads.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (ParseFlag(argv[i], "build", &value)) {
      builds.push_back(value);
    } else if (ParseFlag(argv[i], "catalog", &value)) {
      if (!catalog_path.empty()) {
        std::fprintf(stderr, "error: --catalog may be given once\n");
        return 2;
      }
      catalog_path = value;
    } else if (ParseFlag(argv[i], "metrics-dump", &value)) {
      const size_t comma = value.find(',');
      metrics_dump_path = value.substr(0, comma);
      if (comma != std::string::npos) {
        metrics_dump_interval = std::atoi(value.c_str() + comma + 1);
        if (metrics_dump_interval < 1) {
          std::fprintf(stderr,
                       "error: --metrics-dump interval must be >= 1s\n");
          return 2;
        }
      }
      if (metrics_dump_path.empty()) {
        std::fprintf(stderr,
                     "error: --metrics-dump needs PATH[,SECONDS]\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "slow-request-ms", &value)) {
      options.slow_request_ms = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    }
  }
  if (loads.empty() && builds.empty() && catalog_path.empty()) {
    std::fprintf(stderr,
                 "error: nothing to serve (--load, --build or --catalog)\n");
    PrintUsage(stderr);
    return 2;
  }

  ShbfServer server(options);
  for (const auto& [name, path] : loads) {
    Status s = server.LoadFilter(name, path);
    if (!s.ok()) {
      std::fprintf(stderr, "error: --load=%s=%s: %s\n", name.c_str(),
                   path.c_str(), s.ToString().c_str());
      return 1;
    }
    std::printf("loaded '%s' from %s\n", name.c_str(), path.c_str());
  }
  for (const auto& build : builds) {
    std::string name;
    std::unique_ptr<MembershipFilter> filter;
    Status s = BuildFromSpec(build, &name, &filter);
    if (s.ok()) {
      std::printf("built '%s' (%s, %zu bytes)\n", name.c_str(),
                  std::string(filter->name()).c_str(),
                  filter->memory_bytes());
      s = server.RegisterFilter(name, std::move(filter));
    }
    if (!s.ok()) {
      std::fprintf(stderr, "error: --build=%s: %s\n", build.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }

  if (!catalog_path.empty()) {
    Status s = server.LoadCatalog(catalog_path);
    if (!s.ok()) {
      std::fprintf(stderr, "error: --catalog=%s: %s\n", catalog_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("serving multiset catalog from %s\n", catalog_path.c_str());
  }

  if (pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "error: cannot create shutdown pipe\n");
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<MetricsDumper> dumper;
  if (!metrics_dump_path.empty()) {
    dumper = std::make_unique<MetricsDumper>(server, metrics_dump_path,
                                             metrics_dump_interval);
    std::printf("dumping metrics to %s every %ds\n",
                metrics_dump_path.c_str(), metrics_dump_interval);
  }
  std::printf(
      "serving %zu filter(s)%s on %s:%u (protocol v%u, pid %d)\n",
      loads.size() + builds.size(),
      catalog_path.empty() ? "" : " + 1 multiset catalog",
      options.bind_address.c_str(), server.port(), wire::kProtocolVersion,
      getpid());
  std::fflush(stdout);

  char byte;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  // Drain first, then read the counters, so frames answered during the
  // drain show up in the summary (and in the dumper's final snapshot).
  server.Stop();
  dumper.reset();
  const ShbfServer::Counters counters = server.counters();
  std::printf("shut down cleanly: %llu connection(s), %llu frame(s), "
              "%llu key(s) queried, %llu protocol error(s)\n",
              static_cast<unsigned long long>(counters.connections),
              static_cast<unsigned long long>(counters.frames),
              static_cast<unsigned long long>(counters.keys_queried),
              static_cast<unsigned long long>(counters.protocol_errors));
  return 0;
}

}  // namespace
}  // namespace shbf

int main(int argc, char** argv) { return shbf::Main(argc, argv); }
