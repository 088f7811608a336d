// Torture tests for the serving stack's connection handling: dribbled
// byte-at-a-time frames, several frames per send(), pipelined requests
// answered strictly in order, mid-frame disconnects, slow-loris stalls that
// must not block other connections, mutation under a crowd of live
// readers, fd release on close, the connection limit, and the
// Stop()-vs-in-flight-write race (a large response must arrive complete
// even when Stop lands mid-send).

#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "core/file_io.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"

namespace shbf {
namespace {

std::unique_ptr<MembershipFilter> BuildFilter(const std::string& name,
                                              size_t keys) {
  FilterSpec spec = FilterSpec::ForKeys(keys, 12.0, 8);
  spec.max_count = 8;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create(name, spec, &filter));
  for (size_t i = 0; i < keys; ++i) filter->Add("key-" + std::to_string(i));
  return filter;
}

/// File descriptors this process holds open right now.
size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

/// A counter's value in the server's METRICS snapshot.
uint64_t CounterValue(const ShbfServer& server, std::string_view name) {
  return server.CollectMetrics().CounterValue(name);
}

bool MetricsRecorded() { return obs::kCompiledIn && obs::Enabled(); }

class ServerTortureTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<ShbfServer>(options);
    CheckOk(server_->RegisterFilter("members", BuildFilter("shbf_m", 2000)));
    CheckOk(server_->RegisterFilter("counting",
                                    BuildFilter("counting_bloom", 2000)));
    CheckOk(server_->RegisterFilter("tallies", BuildFilter("shbf_x", 2000)));
    CheckOk(server_->Start());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  int RawConnect() {
    Status s;
    int fd = net::ConnectTcp("127.0.0.1", server_->port(), &s);
    EXPECT_GE(fd, 0) << s.ToString();
    return fd;
  }

  /// HELLO on a raw fd, expecting the OK response.
  void Handshake(int fd) {
    const std::string hello = wire::BuildHello();
    ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size()));
    std::string response;
    ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
              net::FrameRead::kOk);
    ASSERT_FALSE(response.empty());
    ASSERT_EQ(response[0], 0);  // kOk
  }

  /// Reads one response and returns its OK payload.
  std::string ReadOkPayload(int fd) {
    std::string response;
    EXPECT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
              net::FrameRead::kOk);
    wire::WireStatus status;
    std::string_view payload;
    std::string message;
    EXPECT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
    EXPECT_EQ(status, wire::WireStatus::kOk) << message;
    return std::string(payload);
  }

  /// A fresh client connection must still round-trip — the liveness probe
  /// after every abuse.
  void ExpectServerAlive() {
    ShbfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    std::vector<uint8_t> results;
    ASSERT_TRUE(client.Query("members", {"key-1", "nope"}, &results).ok());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], 1);
  }

  /// Closed sockets take a moment to unwind on the server side.
  void WaitForActiveConnections(uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->active_connections() != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server_->active_connections(), want);
  }

  std::unique_ptr<ShbfServer> server_;
};

// A peer that trickles one byte per send() must be served exactly like one
// that sends whole frames: framing is a stream property, not a recv one.
TEST_F(ServerTortureTest, DribbledBytesOneAtATime) {
  StartServer();
  int fd = RawConnect();
  std::string stream = wire::BuildHello();
  stream += wire::BuildQuery("members", wire::QueryMode::kMembership,
                             {"key-7", "absent-key"});
  for (char byte : stream) {
    ASSERT_TRUE(net::SendAll(fd, &byte, 1));
  }
  ReadOkPayload(fd);  // HELLO
  const std::string payload = ReadOkPayload(fd);
  // mode u8 + count u64 + one result byte per key.
  ASSERT_EQ(payload.size(), 1 + 8 + 2u);
  EXPECT_EQ(payload[9], 1);   // key-7 present
  net::CloseFd(fd);
  ExpectServerAlive();
}

// Two frames in one send(): both must be answered from a single read burst.
TEST_F(ServerTortureTest, TwoFramesInOneSend) {
  StartServer();
  int fd = RawConnect();
  std::string stream = wire::BuildHello();
  stream += wire::BuildQuery("members", wire::QueryMode::kMembership,
                             {"key-1", "key-2", "key-3"});
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  ReadOkPayload(fd);
  const std::string payload = ReadOkPayload(fd);
  ASSERT_EQ(payload.size(), 1 + 8 + 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(payload[9 + i], 1);
  net::CloseFd(fd);
}

// 64 pipelined QUERYs in one write; query i carries i+1 keys, so each
// response's length proves the answers come back in request order.
TEST_F(ServerTortureTest, PipelinedQueriesAnsweredInOrder) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  std::string stream;
  for (size_t i = 0; i < 64; ++i) {
    std::vector<std::string> keys;
    for (size_t j = 0; j <= i; ++j) {
      keys.push_back("key-" + std::to_string(j));
    }
    stream +=
        wire::BuildQuery("members", wire::QueryMode::kMembership, keys);
  }
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  for (size_t i = 0; i < 64; ++i) {
    const std::string payload = ReadOkPayload(fd);
    ASSERT_EQ(payload.size(), 1 + 8 + (i + 1)) << "response " << i;
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(payload[9 + j], 1) << "response " << i << " key " << j;
    }
  }
  net::CloseFd(fd);
  ExpectServerAlive();
}

// A framing violation pipelined behind a valid request: the valid request
// is answered first, then the error, then the connection closes — wire
// order survives the violation.
TEST_F(ServerTortureTest, ViolationKeepsPipelineOrder) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  std::string stream = wire::BuildQuery(
      "members", wire::QueryMode::kMembership, {"key-1"});
  stream += std::string(4, '\0');  // zero-length frame: kBadFrame, fatal
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  ReadOkPayload(fd);  // the valid QUERY
  std::string response;
  ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  wire::WireStatus status;
  std::string_view payload;
  std::string message;
  ASSERT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
  EXPECT_EQ(status, wire::WireStatus::kBadFrame) << message;
  // Fatal: the server closes; nothing further arrives.
  EXPECT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
            net::FrameRead::kClosed);
  net::CloseFd(fd);
  ExpectServerAlive();
}

// Disconnecting mid-frame (prefix promised more than was sent) must not
// wedge the server or leak the connection slot.
TEST_F(ServerTortureTest, MidFrameDisconnect) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  const uint8_t partial[] = {100, 0, 0, 0, 1, 2, 3};  // claims 100 bytes
  ASSERT_TRUE(net::SendAll(fd, partial, sizeof(partial)));
  net::CloseFd(fd);
  ExpectServerAlive();
  WaitForActiveConnections(0);
}

// A slow loris sends a length prefix and stalls. Other connections must
// keep being served at full function while it sits there.
TEST_F(ServerTortureTest, SlowLorisDoesNotBlockOthers) {
  StartServer();
  int loris = RawConnect();
  Handshake(loris);
  const uint8_t prefix[] = {50, 0, 0, 0};  // 50-byte frame, body withheld
  ASSERT_TRUE(net::SendAll(loris, prefix, sizeof(prefix)));
  // The stalled connection holds only its own thread: a crowd of
  // round-trips on other connections completes promptly.
  for (int i = 0; i < 20; ++i) ExpectServerAlive();
  // And the loris is still welcome to finish its frame afterwards.
  std::string body(50, '\0');
  body[0] = static_cast<char>(99);  // unknown opcode — a structured error
  ASSERT_TRUE(net::SendAll(loris, body.data(), body.size()));
  std::string response;
  ASSERT_EQ(net::ReadFrame(loris, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  wire::WireStatus status;
  std::string_view payload;
  std::string message;
  ASSERT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
  EXPECT_EQ(status, wire::WireStatus::kUnknownOpcode);
  net::CloseFd(loris);
}

// ADD and RELOAD racing a crowd of live readers: every query must return a
// structured answer (the per-filter lock discipline), and the server must
// come out healthy.
TEST_F(ServerTortureTest, ConcurrentMutationUnderManyReaders) {
  StartServer();
  const std::string snapshot_path =
      ::testing::TempDir() + "/torture_reload.shbf";
  {
    ShbfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(client.Snapshot("counting", snapshot_path).ok());
  }
  constexpr int kReaders = 100;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ShbfClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<std::string> keys = {"key-" + std::to_string(r % 2000),
                                       "absent-" + std::to_string(r)};
      std::vector<uint8_t> results;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Query("counting", keys, &results).ok() ||
            results.size() != 2 || results[0] != 1) {
          failures.fetch_add(1);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    ShbfClient writer;
    ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    int cycle = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      uint64_t added = 0;
      ASSERT_TRUE(
          writer.Add("counting", {"hot-" + std::to_string(cycle)}, &added)
              .ok());
      ASSERT_TRUE(writer.Reload("counting", snapshot_path).ok());
      ++cycle;
    }
    EXPECT_GT(cycle, 0);
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  ExpectServerAlive();
}

// The Stop()-vs-in-flight-write race: a client reading a large response
// must receive it COMPLETE even when Stop lands mid-send. (Stop used to
// SHUT_RDWR live fds, cutting responses off mid-frame.)
TEST_F(ServerTortureTest, StopDrainsInFlightWrites) {
  // The contract holds however slow the host is: the deadline is for
  // stalled peers (StopAbortsStalledPeer), so this case sets it far above
  // its own runtime under a sanitizer.
  ServerOptions options;
  options.drain_timeout_ms = 120000;
  StartServer(options);
  const uint64_t drains_before = CounterValue(*server_, "server.drains_total");
  int fd = RawConnect();
  Handshake(fd);
  // Stop lands once the QUERY is read, so the handler and the whole ~1 MiB
  // response run after it.
  constexpr size_t kKeys = 1u << 20;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("key-" + std::to_string(i & 1023));
  }
  const std::string query =
      wire::BuildQuery("members", wire::QueryMode::kMembership, keys);
  ASSERT_TRUE(net::SendAll(fd, query.data(), query.size()));
  // Stop once the server has read the whole QUERY (frames are counted
  // only after a full read: HELLO + QUERY = 2), concurrently with this
  // thread draining the response.
  std::thread stopper([&] {
    while (server_->counters().frames < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server_->Stop();
  });
  const std::string payload = ReadOkPayload(fd);
  stopper.join();
  ASSERT_EQ(payload.size(), 1 + 8 + kKeys);
  for (size_t i = 0; i < kKeys; i += 4096) {
    ASSERT_EQ(payload[9 + i], 1) << "result " << i;
  }
  net::CloseFd(fd);
  if (MetricsRecorded()) {
    EXPECT_EQ(CounterValue(*server_, "server.drains_total"),
              drains_before + 1);
  }
}

// A stalled peer must not hold Stop() hostage: past drain_timeout_ms the
// connection is aborted and Stop returns.
TEST_F(ServerTortureTest, StopAbortsStalledPeer) {
  ServerOptions options;
  options.drain_timeout_ms = 200;
  StartServer(options);
  int fd = RawConnect();
  // A small, fixed receive buffer: the peer can absorb almost nothing.
  const int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  Handshake(fd);
  // A COUNT answer is 8 bytes per key: ~8 MiB, more than the server's
  // send buffer can hold, so the connection thread blocks in send().
  constexpr size_t kKeys = 1u << 20;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("key-" + std::to_string(i & 1023));
  }
  const std::string query =
      wire::BuildQuery("tallies", wire::QueryMode::kCount, keys);
  ASSERT_TRUE(net::SendAll(fd, query.data(), query.size()));
  // Wait until the handler has finished (it counts the keys just before
  // building the answer), so what Stop waits on is the stalled send, not
  // the handler — however slow the host.
  while (server_->counters().keys_queried < kKeys) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Never read the response; Stop must still return promptly.
  const auto start = std::chrono::steady_clock::now();
  server_->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  EXPECT_EQ(server_->active_connections(), 0u);
  net::CloseFd(fd);
}

// A few hundred concurrent live connections, all answering correctly.
TEST_F(ServerTortureTest, ManyConcurrentConnections) {
  StartServer();
  constexpr int kConns = 200;
  std::vector<std::unique_ptr<ShbfClient>> clients;
  clients.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto client = std::make_unique<ShbfClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok())
        << "connection " << i;
    clients.push_back(std::move(client));
  }
  EXPECT_EQ(server_->active_connections(), static_cast<uint64_t>(kConns));
  for (int i = 0; i < kConns; ++i) {
    std::vector<uint8_t> results;
    ASSERT_TRUE(clients[i]
                    ->Query("members",
                            {"key-" + std::to_string(i), "absent"},
                            &results)
                    .ok());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], 1) << "connection " << i;
  }
  clients.clear();
  WaitForActiveConnections(0);
}

// A peer's close releases its connection at once: by the time it stops
// counting as active, its fd is closed — without waiting for the next
// accept or for Stop().
TEST_F(ServerTortureTest, ClosedConnectionsReleaseTheirFds) {
  StartServer();
  // One round trip first, so any fd the process opens once on its first
  // connect is already in the baseline.
  ExpectServerAlive();
  WaitForActiveConnections(0);
  const size_t fds_before = OpenFdCount();
  const uint64_t closed_before =
      CounterValue(*server_, "server.connections_closed_total");
  constexpr int kConns = 50;
  {
    std::vector<std::unique_ptr<ShbfClient>> clients;
    for (int i = 0; i < kConns; ++i) {
      auto client = std::make_unique<ShbfClient>();
      ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
      clients.push_back(std::move(client));
    }
    EXPECT_EQ(server_->active_connections(), static_cast<uint64_t>(kConns));
  }
  WaitForActiveConnections(0);
  EXPECT_EQ(OpenFdCount(), fds_before);
  if (MetricsRecorded()) {
    EXPECT_EQ(CounterValue(*server_, "server.connections_closed_total"),
              closed_before + kConns);
  }
}

// The over-limit policy: connections past max_connections are accepted and
// immediately closed; the ones inside the limit keep working.
TEST_F(ServerTortureTest, ConnectionLimitRejectsOverflow) {
  ServerOptions options;
  options.max_connections = 4;
  StartServer(options);
  const uint64_t rejected_before =
      CounterValue(*server_, "server.connections_rejected_total");
  std::vector<std::unique_ptr<ShbfClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = std::make_unique<ShbfClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
    clients.push_back(std::move(client));
  }
  // The fifth is cut before (or instead of) a HELLO response.
  ShbfClient overflow;
  EXPECT_FALSE(overflow.Connect("127.0.0.1", server_->port()).ok());
  if (MetricsRecorded()) {
    EXPECT_EQ(CounterValue(*server_, "server.connections_rejected_total"),
              rejected_before + 1);
  }
  // Limit slots free up when connections close.
  clients.pop_back();
  WaitForActiveConnections(3);
  ShbfClient replacement;
  ASSERT_TRUE(replacement.Connect("127.0.0.1", server_->port()).ok());
  std::vector<uint8_t> results;
  EXPECT_TRUE(replacement.Query("members", {"key-1"}, &results).ok());
}

}  // namespace
}  // namespace shbf
