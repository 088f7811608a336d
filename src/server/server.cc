#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <utility>

#include "api/filter_registry.h"
#include "core/file_io.h"
#include "core/version.h"
#include "server/net.h"

namespace shbf {

namespace {

/// Path prefix selecting flat-image (mmap) persistence on SNAPSHOT /
/// RELOAD / --load targets; everything after it is the filesystem path.
constexpr std::string_view kMmapPrefix = "mmap:";

/// True (and strips the prefix into `*path`) when `path` selects mmap mode.
bool StripMmapPrefix(std::string* path) {
  if (path->size() < kMmapPrefix.size() ||
      std::string_view(*path).substr(0, kMmapPrefix.size()) != kMmapPrefix) {
    return false;
  }
  path->erase(0, kMmapPrefix.size());
  return true;
}

/// The per-filter stats record shared by STATS and LIST responses.
void WriteStatsRecord(ByteWriter* writer, const MembershipFilter& filter) {
  wire::WriteString(writer, filter.name());
  writer->PutU64(filter.num_elements());
  writer->PutU64(filter.memory_bytes());
  writer->PutU32(filter.capabilities());
}

/// "WHICH_SETS" → "which_sets" for metric-name suffixes.
std::string LowerOpcodeName(wire::Opcode opcode) {
  std::string name = wire::OpcodeName(opcode);
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

}  // namespace

ShbfServer::ShbfServer(ServerOptions options)
    : options_(std::move(options)),
      engine_(BatchOptions{.batch_size = options_.batch_size}) {
  if (options_.slow_request_ms > 0) {
    trace_ring_.set_slow_threshold_us(
        static_cast<uint64_t>(options_.slow_request_ms) * 1000);
  }
  auto& registry = obs::MetricsRegistry::Global();
  connections_closed_ = registry.GetCounter("server.connections_closed_total");
  connections_rejected_ =
      registry.GetCounter("server.connections_rejected_total");
  drains_ = registry.GetCounter("server.drains_total");
  last_drain_us_ = registry.GetGauge("server.last_drain_us");
  for (uint8_t byte = 1; byte < kOpcodeSlots; ++byte) {
    const auto opcode = static_cast<wire::Opcode>(byte);
    if (std::string_view(wire::OpcodeName(opcode)) == "?") continue;
    const std::string lower = LowerOpcodeName(opcode);
    op_metrics_[byte].frames =
        registry.GetCounter("server.op." + lower + ".frames_total");
    op_metrics_[byte].handle_us =
        registry.GetHistogram("server.handle_us." + lower);
  }
}

ShbfServer::~ShbfServer() { Stop(); }

Status ShbfServer::RegisterFilter(std::string serve_name,
                                  std::unique_ptr<MembershipFilter> filter,
                                  std::string source_path) {
  if (running()) {
    return Status::FailedPrecondition(
        "RegisterFilter: the served-name map is frozen while serving");
  }
  if (serve_name.empty() || serve_name.size() > wire::kMaxNameBytes) {
    return Status::InvalidArgument("RegisterFilter: bad name length " +
                                   std::to_string(serve_name.size()));
  }
  if (filter == nullptr) {
    return Status::InvalidArgument("RegisterFilter: null filter");
  }
  if (served_.count(serve_name) != 0) {
    return Status::AlreadyExists("RegisterFilter: '" + serve_name +
                                 "' is already served");
  }
  // Finish any deferred build now, so the first QUERY can read under the
  // shared lock (mirrors the discipline every mutating opcode follows).
  filter->PrepareForConstReads();
  auto served = std::make_unique<Served>();
  served->multiplicity = dynamic_cast<MultiplicityFilter*>(filter.get());
  // A mapped image is read-only by construction: gate the mutating opcodes
  // here instead of letting them trip the MappedFilter's CHECK.
  if (const auto* mapped =
          dynamic_cast<const storage::MappedFilter*>(filter.get())) {
    served->read_only = true;
    served->snapshot_generation = mapped->generation();
  }
  served->filter = std::move(filter);
  served->source_path = std::move(source_path);
  served_.emplace(std::move(serve_name), std::move(served));
  return Status::Ok();
}

Status ShbfServer::LoadFilter(std::string serve_name,
                              const std::string& path) {
  std::string target = path;
  if (StripMmapPrefix(&target)) {
    // Flat image: map it and serve zero-copy. Checksums are verified once
    // here — after that the kernel pages bits in on demand.
    std::unique_ptr<MembershipFilter> filter;
    Status s = FilterRegistry::Global().OpenMapped(
        target, &filter, storage::OpenOptions{.verify_payload = true});
    if (!s.ok()) return s;
    // Remember the *prefixed* path so empty-path SNAPSHOT / RELOAD frames
    // stay in mmap mode.
    return RegisterFilter(std::move(serve_name), std::move(filter), path);
  }
  std::string blob;
  Status s = ReadFileToString(path, &blob);
  if (!s.ok()) return s;
  std::unique_ptr<MembershipFilter> filter;
  s = FilterRegistry::Global().Deserialize(blob, &filter);
  if (!s.ok()) return s;
  return RegisterFilter(std::move(serve_name), std::move(filter), path);
}

Status ShbfServer::ServeCatalog(SetCatalog catalog,
                                const MultiSetIndexOptions& options) {
  if (running()) {
    return Status::FailedPrecondition(
        "ServeCatalog: the multiset index is frozen while serving");
  }
  if (multiset_ != nullptr) {
    return Status::AlreadyExists("ServeCatalog: a catalog is already served");
  }
  std::unique_ptr<MultiSetIndex> index;
  SetCatalog own = std::move(catalog);
  Status s = MultiSetIndex::Build(&own, options, &index);
  if (!s.ok()) return s;
  index->PrepareForConstReads();
  catalog_ = std::move(own);
  multiset_ = std::move(index);
  return Status::Ok();
}

Status ShbfServer::LoadCatalog(const std::string& path,
                               const MultiSetIndexOptions& options) {
  std::string blob;
  Status s = ReadFileToString(path, &blob);
  if (!s.ok()) return s;
  SetCatalog catalog;
  s = SetCatalog::Deserialize(blob, FilterRegistry::Global(), &catalog);
  if (!s.ok()) return s;
  return ServeCatalog(std::move(catalog), options);
}

Status ShbfServer::Start() {
  if (running()) return Status::FailedPrecondition("Start: already running");
  if (served_.empty() && multiset_ == nullptr) {
    return Status::FailedPrecondition(
        "Start: no filters registered and no catalog served");
  }
  Status s;
  listen_fd_ = net::ListenTcp(options_.bind_address, options_.port, &s);
  if (listen_fd_ < 0) return s;
  port_ = net::LocalPort(listen_fd_);
  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&ShbfServer::AcceptLoop, this);
  return Status::Ok();
}

void ShbfServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const auto drain_start = std::chrono::steady_clock::now();
  // Unblock the acceptor first so no new connection slips in mid-teardown.
  net::ShutdownFd(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  std::unique_lock<std::mutex> lock(connections_mu_);
  // Unblock every connection thread waiting for its next frame — but with
  // SHUT_RD only: a thread that has read a frame keeps its write side and
  // sends the answer. (A full SHUT_RDWR here used to cut responses off
  // mid-send when Stop raced an in-flight reply.)
  for (const auto& connection : connections_) {
    net::ShutdownReadFd(connection->fd);
  }
  // Grace period for the in-flight answers, bounded by drain_timeout_ms;
  // then cut the peers that stopped reading (a stalled peer can block a
  // send forever). A thread inside a handler still finishes it, so the
  // second wait is unbounded but short.
  const auto all_done = [this] { return LiveConnections() == 0; };
  if (!connection_done_.wait_until(
          lock,
          drain_start + std::chrono::milliseconds(options_.drain_timeout_ms),
          all_done)) {
    for (const auto& connection : connections_) {
      net::ShutdownFd(connection->fd);
    }
    connection_done_.wait(lock, all_done);
  }
  ReapFinishedConnections();
  lock.unlock();
  drains_->Increment();
  last_drain_us_->Set(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - drain_start)
                          .count());
}

ShbfServer::Counters ShbfServer::counters() const {
  Counters counters;
  counters.connections = connections_accepted_.load();
  counters.frames = frames_served_.load();
  counters.keys_queried = keys_queried_.load();
  counters.protocol_errors = protocol_errors_.load();
  counters.version = kShbfVersion;
  if (start_time_ != std::chrono::steady_clock::time_point{}) {
    counters.uptime_seconds = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start_time_)
            .count());
  }
  return counters;
}

obs::MetricsSnapshot ShbfServer::CollectMetrics() const {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const Counters core = counters();
  snapshot.uptime_seconds = core.uptime_seconds;
  snapshot.version = core.version;
  snapshot.cpu = HostCpu();
  snapshot.counters.emplace_back("server.connections_total",
                                 core.connections);
  snapshot.counters.emplace_back("server.frames_total", core.frames);
  snapshot.counters.emplace_back("server.keys_queried_total",
                                 core.keys_queried);
  snapshot.counters.emplace_back("server.protocol_errors_total",
                                 core.protocol_errors);
  snapshot.counters.emplace_back("server.slow_requests_total",
                                 trace_ring_.slow_count());
  snapshot.counters.emplace_back("server.traces_recorded_total",
                                 trace_ring_.recorded());
  snapshot.SortByName();
  return snapshot;
}

uint64_t ShbfServer::active_connections() const {
  std::lock_guard<std::mutex> lock(connections_mu_);
  return LiveConnections();
}

size_t ShbfServer::LiveConnections() const {
  return static_cast<size_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const auto& connection) { return !connection->done; }));
}

void ShbfServer::ReapFinishedConnections() {
  // A finished thread has released connections_mu_ for good, so joining
  // it under the lock cannot deadlock.
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if (!(*it)->done) {
      ++it;
      continue;
    }
    (*it)->thread.join();
    it = connections_.erase(it);
  }
}

void ShbfServer::AcceptLoop() {
  while (running()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running()) break;
      // Transient failure (EMFILE under load): back off instead of
      // spinning the core the connection threads need.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (!running()) {
      net::CloseFd(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(connections_mu_);
    ReapFinishedConnections();
    if (options_.max_connections != 0 &&
        connections_.size() >= options_.max_connections) {
      // Accept-and-close rather than leave the socket in the backlog, so
      // the peer learns at once and the backlog cannot silently fill.
      connections_rejected_->Increment();
      net::CloseFd(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    connection->id =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
    try {
      connection->thread =
          std::thread(&ShbfServer::ServeConnection, this, connection.get());
    } catch (const std::system_error&) {
      // Out of threads: nothing can serve this peer, so close it at once.
      net::CloseFd(fd);
      connections_closed_->Increment();
      continue;
    }
    connections_.push_back(std::move(connection));
  }
}

void ShbfServer::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  bool hello_done = false;
  std::string body;
  // Stop() clears running_ before it shuts the read sides down: a thread
  // waiting for its next frame sees end-of-stream, and a frame it has
  // already read is still answered.
  while (running()) {
    const net::FrameRead read =
        net::ReadFrame(fd, options_.max_frame_bytes, &body);
    if (read == net::FrameRead::kClosed ||
        read == net::FrameRead::kTruncated) {
      // Peer hung up (possibly mid-frame): nothing to answer.
      break;
    }
    if (read == net::FrameRead::kTooLarge) {
      net::SendFrame(fd, Error(wire::WireStatus::kTooLarge,
                               "frame exceeds the body limit")
                             .frame);
      break;
    }
    if (read == net::FrameRead::kEmpty) {
      net::SendFrame(fd, Error(wire::WireStatus::kBadFrame,
                               "zero-length frame")
                             .frame);
      break;
    }
    Response response = HandleFrame(body, &hello_done, connection->id);
    if (!net::SendFrame(fd, response.frame)) break;
    if (response.close_connection) break;
  }
  // Close under connections_mu_, the lock Stop() holds while it shuts fds
  // down, so Stop never touches this number once the kernel may recycle
  // it; and close before `done` flips, so a connection that no longer
  // counts as active holds no fd.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    net::CloseFd(fd);
    connection->fd = -1;
    connection->done = true;
    connections_closed_->Increment();
  }
  connection_done_.notify_all();
}

ShbfServer::Response ShbfServer::HandleFrame(std::string_view body,
                                             bool* hello_done,
                                             uint64_t connection_id) {
  // Before the handler, not after: a METRICS frame must see itself in
  // frames_total, so its snapshot is bit-identical to a counters() read
  // taken once the response has arrived (the parity contract).
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  if (!obs::Enabled()) return HandleRequest(body, hello_done);
  const auto opcode_byte =
      body.empty() ? uint8_t{0} : static_cast<uint8_t>(body[0]);
  const bool known_opcode =
      opcode_byte < kOpcodeSlots && op_metrics_[opcode_byte].frames != nullptr;
  // Per-opcode frame counts share the parity contract: counted before the
  // handler, so "server.op.metrics.frames_total" in a METRICS snapshot
  // already includes the frame that produced it.
  if (known_opcode) op_metrics_[opcode_byte].frames->Increment();
  const auto start = std::chrono::steady_clock::now();
  Response response = HandleRequest(body, hello_done);
  const auto handle_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (known_opcode) op_metrics_[opcode_byte].handle_us->Record(handle_us);
  obs::RequestTrace trace;
  trace.connection_id = connection_id;
  trace.opcode = opcode_byte;
  trace.opcode_name =
      wire::OpcodeName(static_cast<wire::Opcode>(opcode_byte));
  trace.key_count = response.keys_touched;
  trace.bytes_in = body.size();
  trace.bytes_out = response.frame.size();
  trace.handle_us = handle_us;
  trace_ring_.Record(trace);
  return response;
}

ShbfServer::Response ShbfServer::HandleRequest(std::string_view body,
                                               bool* hello_done) {
  ByteReader reader(body);
  uint8_t opcode_byte = 0;
  reader.GetU8(&opcode_byte);  // body is non-empty (kEmpty handled earlier)
  const auto opcode = static_cast<wire::Opcode>(opcode_byte);
  if (!*hello_done && opcode != wire::Opcode::kHello) {
    return Error(wire::WireStatus::kBadFrame,
                 "the first frame on a connection must be HELLO");
  }
  switch (opcode) {
    case wire::Opcode::kHello:
      return HandleHello(&reader, hello_done);
    case wire::Opcode::kQuery:
      return HandleQuery(&reader);
    case wire::Opcode::kAdd:
      return HandleAdd(&reader);
    case wire::Opcode::kRemove:
      return HandleRemove(&reader);
    case wire::Opcode::kStats:
      return HandleStats(&reader);
    case wire::Opcode::kList:
      return HandleList();
    case wire::Opcode::kSnapshot:
      return HandleSnapshot(&reader);
    case wire::Opcode::kReload:
      return HandleReload(&reader);
    case wire::Opcode::kWhichSets:
      return HandleWhichSets(&reader);
    case wire::Opcode::kIndexAdd:
      return HandleIndexAdd(&reader);
    case wire::Opcode::kIndexDrop:
      return HandleIndexDrop(&reader);
    case wire::Opcode::kMultisetList:
      return HandleMultisetList();
    case wire::Opcode::kMetrics:
      return HandleMetrics(&reader);
  }
  return Error(wire::WireStatus::kUnknownOpcode,
               "unknown opcode " + std::to_string(opcode_byte));
}

ShbfServer::Response ShbfServer::HandleHello(ByteReader* reader,
                                             bool* hello_done) {
  uint32_t magic = 0;
  uint8_t version = 0;
  if (!reader->GetU32(&magic) || !reader->GetU8(&version) ||
      !reader->AtEnd()) {
    return Error(wire::WireStatus::kBadFrame, "malformed HELLO");
  }
  if (magic != wire::kMagic) {
    return Error(wire::WireStatus::kBadFrame, "bad HELLO magic");
  }
  // v2 and v3 only ADDED opcodes, so every older client's frames are still
  // served verbatim — accept 1..kProtocolVersion and echo the version this
  // connection will speak. Unknown (future/zero) versions stay loud.
  if (version < wire::kMinProtocolVersion ||
      version > wire::kProtocolVersion) {
    return Error(wire::WireStatus::kVersionMismatch,
                 "client speaks protocol " + std::to_string(version) +
                     ", server supports " +
                     std::to_string(wire::kMinProtocolVersion) + ".." +
                     std::to_string(wire::kProtocolVersion));
  }
  *hello_done = true;
  ByteWriter writer;
  writer.PutU8(version);
  wire::WriteString(&writer, std::string("shbf_server ") + kShbfVersion);
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Served* ShbfServer::ResolveFilter(ByteReader* reader,
                                              Response* error) {
  std::string name;
  if (!wire::ReadString(reader, wire::kMaxNameBytes, &name)) {
    *error = Error(wire::WireStatus::kBadFrame, "malformed filter name");
    return nullptr;
  }
  auto it = served_.find(name);
  if (it == served_.end()) {
    *error = Error(wire::WireStatus::kUnknownFilter,
                   "no filter served as '" + name + "'");
    return nullptr;
  }
  return it->second.get();
}

bool ShbfServer::ReadFrameKeys(ByteReader* reader, std::string_view op,
                               std::vector<std::string>* keys,
                               Response* error) {
  // Judge the count before ReadKeyList reserves room for it. A count the
  // frame cannot hold falls through to ReadKeyList's BAD_FRAME.
  ByteReader peek = *reader;
  uint64_t count = 0;
  if (serde::ReadKeyCount(&peek, &count) &&
      count > options_.max_keys_per_frame) {
    *error = Error(wire::WireStatus::kTooLarge,
                   std::string(op) + ": " + std::to_string(count) +
                       " keys exceed the per-frame limit");
    return false;
  }
  if (!serde::ReadKeyList(reader, keys) || !reader->AtEnd()) {
    *error = Error(wire::WireStatus::kBadFrame,
                   std::string(op) + ": malformed key list");
    return false;
  }
  return true;
}

ShbfServer::Response ShbfServer::HandleQuery(ByteReader* reader) {
  Response error;
  Served* served = ResolveFilter(reader, &error);
  if (served == nullptr) return error;
  uint8_t mode_byte = 0;
  if (!reader->GetU8(&mode_byte) ||
      mode_byte > static_cast<uint8_t>(wire::QueryMode::kCount)) {
    return Error(wire::WireStatus::kBadFrame, "QUERY: bad mode");
  }
  std::vector<std::string> keys;
  if (!ReadFrameKeys(reader, "QUERY", &keys, &error)) return error;
  const auto mode = static_cast<wire::QueryMode>(mode_byte);
  ByteWriter writer;
  writer.PutU8(mode_byte);
  writer.PutU64(keys.size());
  if (mode == wire::QueryMode::kMembership) {
    std::vector<uint8_t> results;
    {
      std::shared_lock<std::shared_mutex> lock(served->mu);
      engine_.ContainsBatch(*served->filter, keys, &results);
    }
    for (uint8_t result : results) writer.PutU8(result != 0 ? 1 : 0);
  } else {
    std::vector<uint64_t> counts;
    {
      // The multiplicity view swaps together with the filter under this
      // lock (RELOAD), so both the null check and the use belong inside.
      std::shared_lock<std::shared_mutex> lock(served->mu);
      if (served->multiplicity == nullptr) {
        return Error(wire::WireStatus::kUnsupported,
                     std::string(served->filter->name()) +
                         ": not a multiplicity filter (COUNT unsupported)");
      }
      engine_.QueryCountBatch(*served->multiplicity, keys, &counts);
    }
    for (uint64_t count : counts) writer.PutU64(count);
  }
  keys_queried_.fetch_add(keys.size(), std::memory_order_relaxed);
  return Response{wire::BuildOk(writer.Take()), false,
                  static_cast<uint32_t>(keys.size())};
}

ShbfServer::Response ShbfServer::HandleAdd(ByteReader* reader) {
  Response error;
  Served* served = ResolveFilter(reader, &error);
  if (served == nullptr) return error;
  std::vector<std::string> keys;
  if (!ReadFrameKeys(reader, "ADD", &keys, &error)) return error;
  {
    std::unique_lock<std::shared_mutex> lock(served->mu);
    if (served->read_only) {
      return Error(wire::WireStatus::kUnsupported,
                   "ADD: filter serves a read-only mapped image; RELOAD a "
                   "heap snapshot to mutate");
    }
    for (const auto& key : keys) served->filter->Add(key);
    // Fold any deferred rebuild into this writer section, so subsequent
    // reads stay pure under the shared lock.
    served->filter->PrepareForConstReads();
  }
  ByteWriter writer;
  writer.PutU64(keys.size());
  return Response{wire::BuildOk(writer.Take()), false,
                  static_cast<uint32_t>(keys.size())};
}

ShbfServer::Response ShbfServer::HandleRemove(ByteReader* reader) {
  Response error;
  Served* served = ResolveFilter(reader, &error);
  if (served == nullptr) return error;
  std::vector<std::string> keys;
  if (!ReadFrameKeys(reader, "REMOVE", &keys, &error)) return error;
  std::vector<uint8_t> removed(keys.size(), 0);
  {
    std::unique_lock<std::shared_mutex> lock(served->mu);
    if (served->read_only) {
      return Error(wire::WireStatus::kUnsupported,
                   "REMOVE: filter serves a read-only mapped image; RELOAD "
                   "a heap snapshot to mutate");
    }
    if ((served->filter->capabilities() & kRemove) == 0) {
      return Error(wire::WireStatus::kUnsupported,
                   std::string(served->filter->name()) +
                       ": filter does not support REMOVE");
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      removed[i] = served->filter->Remove(keys[i]).ok() ? 1 : 0;
    }
    served->filter->PrepareForConstReads();
  }
  ByteWriter writer;
  writer.PutU64(removed.size());
  for (uint8_t result : removed) writer.PutU8(result);
  return Response{wire::BuildOk(writer.Take()), false,
                  static_cast<uint32_t>(keys.size())};
}

ShbfServer::Response ShbfServer::HandleStats(ByteReader* reader) {
  Response error;
  Served* served = ResolveFilter(reader, &error);
  if (served == nullptr) return error;
  if (!reader->AtEnd()) {
    return Error(wire::WireStatus::kBadFrame, "STATS: trailing bytes");
  }
  ByteWriter writer;
  {
    std::shared_lock<std::shared_mutex> lock(served->mu);
    WriteStatsRecord(&writer, *served->filter);
  }
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::HandleList() {
  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(served_.size()));
  for (const auto& [serve_name, served] : served_) {
    wire::WriteString(&writer, serve_name);
    std::shared_lock<std::shared_mutex> lock(served->mu);
    WriteStatsRecord(&writer, *served->filter);
  }
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::HandleSnapshot(ByteReader* reader) {
  Response error;
  Served* served = ResolveFilter(reader, &error);
  if (served == nullptr) return error;
  std::string path;
  if (!wire::ReadString(reader, wire::kMaxPathBytes, &path) ||
      !reader->AtEnd()) {
    return Error(wire::WireStatus::kBadFrame, "SNAPSHOT: malformed path");
  }
  std::string blob;
  {
    // Exclusive: ToBytes is outside the PrepareForConstReads purity
    // promise, so don't let it race shared-lock readers.
    std::unique_lock<std::shared_mutex> lock(served->mu);
    if (path.empty()) path = served->source_path;
    if (path.empty()) {
      return Error(wire::WireStatus::kIoError,
                   "SNAPSHOT: no path given and none remembered");
    }
    std::string image_path = path;
    if (StripMmapPrefix(&image_path)) {
      // Flat-image snapshot. The saver borrows pointers into the live
      // array, so the write (temp + fsync + rename; crash-consistent)
      // happens under the writer lock — unlike the heap branch there is
      // no intermediate blob to copy out.
      const uint64_t generation = served->snapshot_generation + 1;
      Status s = FilterRegistry::Global().SaveMapped(*served->filter,
                                                     image_path, generation);
      if (!s.ok()) {
        return Error(wire::WireStatus::kIoError, "SNAPSHOT: " + s.ToString());
      }
      served->snapshot_generation = generation;
      served->source_path = path;  // keep the mmap: prefix
      struct stat st {};
      const uint64_t written =
          ::stat(image_path.c_str(), &st) == 0
              ? static_cast<uint64_t>(st.st_size)
              : 0;
      ByteWriter writer;
      writer.PutU64(written);
      wire::WriteString(&writer, path);
      return Response{wire::BuildOk(writer.Take()), false};
    }
    blob = FilterRegistry::Serialize(*served->filter);
  }
  // File I/O outside the lock: each write gets its own temp file, so
  // concurrent SNAPSHOTs of one path never interleave, and a RELOAD of the
  // path reads a whole envelope. The remembered path only moves to the new
  // target once the bytes are actually on disk.
  Status s = WriteStringToFile(path, blob);
  if (!s.ok()) {
    return Error(wire::WireStatus::kIoError, "SNAPSHOT: " + s.ToString());
  }
  {
    std::unique_lock<std::shared_mutex> lock(served->mu);
    served->source_path = path;
  }
  ByteWriter writer;
  writer.PutU64(blob.size());
  wire::WriteString(&writer, path);
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::HandleReload(ByteReader* reader) {
  Response error;
  Served* served = ResolveFilter(reader, &error);
  if (served == nullptr) return error;
  std::string path;
  if (!wire::ReadString(reader, wire::kMaxPathBytes, &path) ||
      !reader->AtEnd()) {
    return Error(wire::WireStatus::kBadFrame, "RELOAD: malformed path");
  }
  if (path.empty()) {
    std::shared_lock<std::shared_mutex> lock(served->mu);
    path = served->source_path;
  }
  if (path.empty()) {
    return Error(wire::WireStatus::kIoError,
                 "RELOAD: no path given and none remembered");
  }
  // Read + deserialize + prepare outside the lock: queries keep flowing
  // against the old filter until the swap below.
  std::unique_ptr<MembershipFilter> fresh;
  bool fresh_read_only = false;
  uint64_t fresh_generation = 0;
  std::string image_path = path;
  if (StripMmapPrefix(&image_path)) {
    // Flat image: verify checksums once, then serve zero-copy (read-only).
    Status s = FilterRegistry::Global().OpenMapped(
        image_path, &fresh, storage::OpenOptions{.verify_payload = true});
    if (!s.ok()) {
      return Error(wire::WireStatus::kIoError, "RELOAD: " + s.ToString());
    }
    fresh_read_only = true;
    fresh_generation =
        static_cast<const storage::MappedFilter*>(fresh.get())->generation();
  } else {
    std::string blob;
    Status s = ReadFileToString(path, &blob);
    if (!s.ok()) {
      return Error(wire::WireStatus::kIoError, "RELOAD: " + s.ToString());
    }
    s = FilterRegistry::Global().Deserialize(blob, &fresh);
    if (!s.ok()) {
      return Error(wire::WireStatus::kIoError, "RELOAD: " + s.ToString());
    }
  }
  fresh->PrepareForConstReads();
  uint64_t elements = 0;
  {
    std::unique_lock<std::shared_mutex> lock(served->mu);
    served->multiplicity = dynamic_cast<MultiplicityFilter*>(fresh.get());
    served->filter = std::move(fresh);
    served->source_path = path;
    served->read_only = fresh_read_only;
    if (fresh_read_only) served->snapshot_generation = fresh_generation;
    elements = served->filter->num_elements();
  }
  ByteWriter writer;
  writer.PutU64(elements);
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::HandleWhichSets(ByteReader* reader) {
  Response error;
  std::vector<std::string> keys;
  if (!ReadFrameKeys(reader, "WHICH_SETS", &keys, &error)) return error;
  SetIdRows answers;
  {
    std::shared_lock<std::shared_mutex> lock(multiset_mu_);
    if (multiset_ == nullptr) {
      return Error(wire::WireStatus::kUnsupported,
                   "WHICH_SETS: no multiset catalog is served");
    }
    // The answer block scales with keys × id_bound (one row per key),
    // which the per-frame KEY limit alone does not bound: against a
    // 2^20-id catalog, a maximal frame would allocate 128 GiB before the
    // response-size guard below could run. Budget the block's real size
    // up front.
    constexpr size_t kMaxScratchBytes = size_t{256} << 20;  // 256 MiB
    const size_t row_bytes = SetIdRows::RowBytes(multiset_->id_bound());
    if (row_bytes != 0 && keys.size() > kMaxScratchBytes / row_bytes) {
      return Error(wire::WireStatus::kTooLarge,
                   "WHICH_SETS: " + std::to_string(keys.size()) +
                       " keys against a " +
                       std::to_string(multiset_->id_bound()) +
                       "-id catalog exceed the per-frame answer budget; "
                       "send fewer keys per frame");
    }
    multiset_->WhichSetsBatch(keys, &answers);
  }
  // WHICH_SETS is the first response whose size scales with the ANSWER
  // (keys × matching ids), not just the request: bound it while building,
  // or a legal frame against a many-set catalog could produce a response
  // the peer must reject — and past 4 GiB, one whose u32 length prefix
  // silently wraps.
  ByteWriter writer;
  writer.PutU64(answers.rows());
  for (size_t i = 0; i < answers.rows(); ++i) {
    writer.PutU32(static_cast<uint32_t>(answers.Count(i)));
    answers.ForEachId(i, [&](uint32_t id) { writer.PutU32(id); });
    if (writer.size() + 1 > options_.max_frame_bytes) {  // +1: status byte
      return Error(wire::WireStatus::kTooLarge,
                   "WHICH_SETS: response exceeds the frame limit; send "
                   "fewer keys per frame");
    }
  }
  keys_queried_.fetch_add(keys.size(), std::memory_order_relaxed);
  return Response{wire::BuildOk(writer.Take()), false,
                  static_cast<uint32_t>(keys.size())};
}

ShbfServer::Response ShbfServer::HandleIndexAdd(ByteReader* reader) {
  std::string name;
  if (!wire::ReadString(reader, wire::kMaxNameBytes, &name)) {
    return Error(wire::WireStatus::kBadFrame, "INDEX_ADD: malformed name");
  }
  Response error;
  std::vector<std::string> keys;
  if (!ReadFrameKeys(reader, "INDEX_ADD", &keys, &error)) return error;
  {
    std::unique_lock<std::shared_mutex> lock(multiset_mu_);
    if (multiset_ == nullptr) {
      return Error(wire::WireStatus::kUnsupported,
                   "INDEX_ADD: no multiset catalog is served");
    }
    const SetCatalog::SetEntry* entry = catalog_.Find(name);
    if (entry == nullptr) {
      return Error(wire::WireStatus::kUnknownFilter,
                   "INDEX_ADD: no set named '" + name + "'");
    }
    Status s = multiset_->AddKeys(entry->id, keys);
    if (!s.ok()) {
      return Error(wire::WireStatus::kInternal, "INDEX_ADD: " + s.ToString());
    }
    // Fold any deferred rebuild into this writer section, so WHICH_SETS
    // reads stay pure under the shared lock.
    multiset_->PrepareForConstReads();
  }
  ByteWriter writer;
  writer.PutU64(keys.size());
  return Response{wire::BuildOk(writer.Take()), false,
                  static_cast<uint32_t>(keys.size())};
}

ShbfServer::Response ShbfServer::HandleIndexDrop(ByteReader* reader) {
  std::string name;
  if (!wire::ReadString(reader, wire::kMaxNameBytes, &name) ||
      !reader->AtEnd()) {
    return Error(wire::WireStatus::kBadFrame, "INDEX_DROP: malformed name");
  }
  uint64_t remaining = 0;
  {
    std::unique_lock<std::shared_mutex> lock(multiset_mu_);
    if (multiset_ == nullptr) {
      return Error(wire::WireStatus::kUnsupported,
                   "INDEX_DROP: no multiset catalog is served");
    }
    const SetCatalog::SetEntry* entry = catalog_.Find(name);
    if (entry == nullptr) {
      return Error(wire::WireStatus::kUnknownFilter,
                   "INDEX_DROP: no set named '" + name + "'");
    }
    // Index first (it drops its pointer), then the catalog frees the
    // filter — the order the MultiSetIndex contract requires.
    Status s = multiset_->RemoveSet(entry->id);
    if (s.ok()) s = catalog_.DropSet(name);
    if (!s.ok()) {
      return Error(wire::WireStatus::kInternal,
                   "INDEX_DROP: " + s.ToString());
    }
    remaining = catalog_.size();
  }
  ByteWriter writer;
  writer.PutU64(remaining);
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::HandleMultisetList() {
  ByteWriter writer;
  {
    std::shared_lock<std::shared_mutex> lock(multiset_mu_);
    if (multiset_ == nullptr) {
      return Error(wire::WireStatus::kUnsupported,
                   "MULTISET_LIST: no multiset catalog is served");
    }
    const MultiSetIndex::Stats stats = multiset_->stats();
    // The v3 layout, whose tree fields now carry the flat index: `trees`
    // the slice count, `levels` always 1.
    writer.PutU32(static_cast<uint32_t>(catalog_.size()));
    writer.PutU32(static_cast<uint32_t>(stats.slices));
    writer.PutU32(static_cast<uint32_t>(stats.scan_sets));
    writer.PutU32(1);
    writer.PutU64(stats.memory_bytes);
    for (const SetCatalog::SetEntry* entry : catalog_.Entries()) {
      writer.PutU32(entry->id);
      wire::WriteString(&writer, entry->name);
      wire::WriteString(&writer, entry->filter->name());
      writer.PutU64(entry->filter->num_elements());
    }
  }
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::HandleMetrics(ByteReader* reader) {
  if (!reader->AtEnd()) {
    return Error(wire::WireStatus::kBadFrame, "METRICS: trailing bytes");
  }
  const obs::MetricsSnapshot snapshot = CollectMetrics();
  ByteWriter writer;
  writer.PutU64(snapshot.uptime_seconds);
  wire::WriteString(&writer, snapshot.version);
  wire::WriteString(&writer, snapshot.cpu);
  writer.PutU32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    wire::WriteString(&writer, name);
    writer.PutU64(value);
  }
  writer.PutU32(static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    wire::WriteString(&writer, name);
    // Two's complement through u64; the client casts back.
    writer.PutU64(static_cast<uint64_t>(value));
  }
  writer.PutU32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    wire::WriteString(&writer, h.name);
    writer.PutU64(h.count);
    writer.PutU64(h.sum);
    writer.PutU32(static_cast<uint32_t>(h.buckets.size()));
    for (uint64_t bucket : h.buckets) writer.PutU64(bucket);
  }
  if (writer.size() + 1 > options_.max_frame_bytes) {  // +1: status byte
    return Error(wire::WireStatus::kTooLarge,
                 "METRICS: snapshot exceeds the frame limit");
  }
  return Response{wire::BuildOk(writer.Take()), false};
}

ShbfServer::Response ShbfServer::Error(wire::WireStatus status,
                                       std::string_view message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  return Response{wire::BuildError(status, message), wire::IsFatal(status)};
}

}  // namespace shbf
