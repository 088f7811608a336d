// Robustness tests for the shbf_server wire protocol: truncated frames,
// oversized length prefixes, unknown opcodes, garbage payloads and
// mid-frame disconnects must each produce a structured error or a dropped
// connection — never a crash, hang or leak (the ASan+UBSan CI job runs
// this suite too). The well-formed path is covered through ShbfClient.

#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"

namespace shbf {
namespace {

std::unique_ptr<MembershipFilter> BuildFilter(const std::string& name,
                                              size_t keys, uint32_t k = 8) {
  FilterSpec spec = FilterSpec::ForKeys(keys, 12.0, k);
  spec.max_count = 8;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create(name, spec, &filter));
  for (size_t i = 0; i < keys; ++i) filter->Add("key-" + std::to_string(i));
  return filter;
}

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ShbfServer>();
    CheckOk(server_->RegisterFilter("members", BuildFilter("shbf_m", 2000)));
    CheckOk(server_->RegisterFilter("counts", BuildFilter("shbf_x", 2000)));
    CheckOk(
        server_->RegisterFilter("counting", BuildFilter("counting_bloom",
                                                        2000)));
    CheckOk(server_->Start());
  }

  void TearDown() override { server_->Stop(); }

  int RawConnect() {
    Status s;
    int fd = net::ConnectTcp("127.0.0.1", server_->port(), &s);
    EXPECT_GE(fd, 0) << s.ToString();
    return fd;
  }

  /// Sends raw bytes and reads one response body; returns false if the
  /// server closed instead of answering.
  bool SendRaw(int fd, std::string_view bytes, std::string* response) {
    if (!net::SendAll(fd, bytes.data(), bytes.size())) return false;
    return net::ReadFrame(fd, wire::kMaxFrameBytes, response) ==
           net::FrameRead::kOk;
  }

  /// Expects `frame` (sent after a valid HELLO) to draw the given error
  /// status. Returns the connection fd (still open) for follow-ups.
  int ExpectError(const std::string& frame, wire::WireStatus expected) {
    int fd = RawConnect();
    std::string response;
    EXPECT_TRUE(SendRaw(fd, wire::BuildHello(), &response));
    EXPECT_TRUE(SendRaw(fd, frame, &response));
    wire::WireStatus status;
    std::string_view payload;
    std::string message;
    EXPECT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
    EXPECT_EQ(status, expected) << wire::WireStatusName(status) << ": "
                                << message;
    return fd;
  }

  /// The liveness probe: a fresh client connection must still work.
  void ExpectServerAlive() {
    ShbfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    std::vector<uint8_t> results;
    ASSERT_TRUE(client.Query("members", {"key-1", "nope"}, &results).ok());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], 1);
  }

  std::unique_ptr<ShbfServer> server_;
};

TEST_F(ServerProtocolTest, ClientRoundTrip) {
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_NE(client.server_version().find("shbf_server"), std::string::npos);

  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) keys.push_back("key-" + std::to_string(i));
  std::vector<uint8_t> results;
  ASSERT_TRUE(client.Query("members", keys, &results).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(results[i], 1) << "false negative at " << i;
  }

  std::vector<uint64_t> counts;
  ASSERT_TRUE(client.QueryCount("counts", keys, &counts).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_GE(counts[i], 1u) << "count false negative at " << i;
  }

  uint64_t added = 0;
  ASSERT_TRUE(client.Add("members", {"fresh-1", "fresh-2"}, &added).ok());
  EXPECT_EQ(added, 2u);
  ASSERT_TRUE(client.Query("members", {"fresh-1", "fresh-2"}, &results).ok());
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[1], 1);

  ShbfClient::FilterInfo info;
  ASSERT_TRUE(client.Stats("members", &info).ok());
  EXPECT_EQ(info.registry_name, "shbf_m");
  EXPECT_EQ(info.elements, 2002u);

  std::vector<ShbfClient::FilterInfo> filters;
  ASSERT_TRUE(client.List(&filters).ok());
  EXPECT_EQ(filters.size(), 3u);
}

TEST_F(ServerProtocolTest, RemoveGatedOnCapabilities) {
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // shbf_m is not deletable: structured failure, connection stays usable.
  Status s = client.Remove("members", {"key-1"});
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
  // counting_bloom is: the key really disappears.
  std::vector<uint8_t> removed;
  ASSERT_TRUE(client.Remove("counting", {"key-1", "absent"}, &removed).ok());
  EXPECT_EQ(removed[0], 1);
  EXPECT_EQ(removed[1], 0);
  std::vector<uint8_t> results;
  ASSERT_TRUE(client.Query("counting", {"key-1"}, &results).ok());
  EXPECT_EQ(results[0], 0);
}

TEST_F(ServerProtocolTest, SnapshotAndReloadRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/server_protocol_snapshot.shbf";
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  uint64_t bytes = 0;
  std::string path_used;
  ASSERT_TRUE(client.Snapshot("members", path, &bytes, &path_used).ok());
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(path_used, path);
  // Mutate, then reload the snapshot: the mutation is rolled back.
  ASSERT_TRUE(client.Add("members", {"post-snapshot"}, nullptr).ok());
  uint64_t elements = 0;
  ASSERT_TRUE(client.Reload("members", "", &elements).ok());  // remembered
  EXPECT_EQ(elements, 2000u);
  // Reload from a path that does not exist: IO error, connection usable.
  Status s = client.Reload("members", path + ".missing");
  EXPECT_FALSE(s.ok());
  // A FAILED snapshot must not move the remembered path: snapshot to an
  // unwritable target, then an empty-path reload still finds the last
  // successful snapshot.
  EXPECT_FALSE(
      client.Snapshot("members", "/nonexistent-dir/broken.shbf").ok());
  ASSERT_TRUE(client.Reload("members", "", &elements).ok());
  EXPECT_EQ(elements, 2000u);
  ExpectServerAlive();
  std::remove(path.c_str());
}

TEST_F(ServerProtocolTest, HelloRequired) {
  int fd = RawConnect();
  std::string response;
  // A QUERY before HELLO is a structured error followed by a close.
  ASSERT_TRUE(SendRaw(
      fd, wire::BuildQuery("members", wire::QueryMode::kMembership, {"k"}),
      &response));
  wire::WireStatus status;
  std::string_view payload;
  std::string message;
  ASSERT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
  EXPECT_EQ(status, wire::WireStatus::kBadFrame);
  EXPECT_FALSE(SendRaw(fd, wire::BuildList(), &response));  // closed
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, HelloBadMagicOrVersion) {
  {
    int fd = RawConnect();
    ByteWriter writer;
    writer.PutU8(static_cast<uint8_t>(wire::Opcode::kHello));
    writer.PutU32(0xdeadbeef);
    writer.PutU8(wire::kProtocolVersion);
    std::string response;
    ASSERT_TRUE(SendRaw(fd, wire::Frame(writer.Take()), &response));
    EXPECT_EQ(static_cast<wire::WireStatus>(response[0]),
              wire::WireStatus::kBadFrame);
    net::CloseFd(fd);
  }
  {
    int fd = RawConnect();
    ByteWriter writer;
    writer.PutU8(static_cast<uint8_t>(wire::Opcode::kHello));
    writer.PutU32(wire::kMagic);
    writer.PutU8(99);  // a protocol from the future
    std::string response;
    ASSERT_TRUE(SendRaw(fd, wire::Frame(writer.Take()), &response));
    EXPECT_EQ(static_cast<wire::WireStatus>(response[0]),
              wire::WireStatus::kVersionMismatch);
    net::CloseFd(fd);
  }
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, TruncatedLengthPrefix) {
  int fd = RawConnect();
  const char partial[2] = {0x10, 0x00};  // 2 of the 4 prefix bytes
  ASSERT_TRUE(net::SendAll(fd, partial, sizeof(partial)));
  net::CloseFd(fd);  // hang up mid-prefix
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, MidFrameDisconnect) {
  int fd = RawConnect();
  std::string hello_response;
  ASSERT_TRUE(SendRaw(fd, wire::BuildHello(), &hello_response));
  ByteWriter writer;
  writer.PutU32(100);           // promise a 100-byte body
  writer.PutU8(0x02);           // ... deliver 3 bytes of it
  writer.PutU8(0x00);
  writer.PutU8(0x00);
  const std::string bytes = writer.Take();
  ASSERT_TRUE(net::SendAll(fd, bytes.data(), bytes.size()));
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, OversizedLengthPrefix) {
  int fd = RawConnect();
  std::string hello_response;
  ASSERT_TRUE(SendRaw(fd, wire::BuildHello(), &hello_response));
  ByteWriter writer;
  writer.PutU32(0x7fffffff);  // a 2 GB frame: rejected before allocation
  const std::string bytes = writer.Take();
  std::string response;
  ASSERT_TRUE(SendRaw(fd, bytes, &response));
  EXPECT_EQ(static_cast<wire::WireStatus>(response[0]),
            wire::WireStatus::kTooLarge);
  EXPECT_FALSE(SendRaw(fd, wire::BuildList(), &response));  // closed
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, ZeroLengthFrame) {
  int fd = RawConnect();
  std::string hello_response;
  ASSERT_TRUE(SendRaw(fd, wire::BuildHello(), &hello_response));
  ByteWriter writer;
  writer.PutU32(0);
  const std::string bytes = writer.Take();
  std::string response;
  ASSERT_TRUE(SendRaw(fd, bytes, &response));
  EXPECT_EQ(static_cast<wire::WireStatus>(response[0]),
            wire::WireStatus::kBadFrame);
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, UnknownOpcode) {
  ByteWriter writer;
  writer.PutU8(0x77);
  int fd = ExpectError(wire::Frame(writer.Take()),
                       wire::WireStatus::kUnknownOpcode);
  // Opcode-level error: the connection keeps serving.
  std::string response;
  EXPECT_TRUE(SendRaw(fd, wire::BuildList(), &response));
  EXPECT_EQ(static_cast<wire::WireStatus>(response[0]),
            wire::WireStatus::kOk);
  net::CloseFd(fd);
}

TEST_F(ServerProtocolTest, UnknownFilter) {
  int fd = ExpectError(
      wire::BuildQuery("no-such", wire::QueryMode::kMembership, {"k"}),
      wire::WireStatus::kUnknownFilter);
  net::CloseFd(fd);
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, CountModeOnMembershipFilter) {
  int fd =
      ExpectError(wire::BuildQuery("members", wire::QueryMode::kCount, {"k"}),
                  wire::WireStatus::kUnsupported);
  net::CloseFd(fd);
}

TEST_F(ServerProtocolTest, GarbagePayloads) {
  // QUERY with a truncated name length.
  {
    ByteWriter writer;
    writer.PutU8(static_cast<uint8_t>(wire::Opcode::kQuery));
    writer.PutU8(0xff);  // half a u32
    int fd =
        ExpectError(wire::Frame(writer.Take()), wire::WireStatus::kBadFrame);
    net::CloseFd(fd);
  }
  // QUERY whose key list claims more keys than the body carries (the
  // count-bomb shape: must fail before any allocation amplifies it).
  {
    ByteWriter writer;
    writer.PutU8(static_cast<uint8_t>(wire::Opcode::kQuery));
    wire::WriteString(&writer, "members");
    writer.PutU8(static_cast<uint8_t>(wire::QueryMode::kMembership));
    writer.PutU64(uint64_t{1} << 40);  // "a trillion keys follow"
    int fd =
        ExpectError(wire::Frame(writer.Take()), wire::WireStatus::kBadFrame);
    net::CloseFd(fd);
  }
  // STATS with trailing garbage after a valid name.
  {
    ByteWriter writer;
    writer.PutU8(static_cast<uint8_t>(wire::Opcode::kStats));
    wire::WriteString(&writer, "members");
    writer.PutU32(0xabad1dea);
    int fd =
        ExpectError(wire::Frame(writer.Take()), wire::WireStatus::kBadFrame);
    net::CloseFd(fd);
  }
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, ConcurrentReadersAndOneWriter) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      ShbfClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      std::vector<std::string> keys;
      for (int i = 0; i < 64; ++i) keys.push_back("key-" + std::to_string(i));
      std::vector<uint8_t> results;
      for (int round = 0; round < kRounds; ++round) {
        if (!client.Query("members", keys, &results).ok() ||
            results[0] != 1) {
          ++failures;
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    ShbfClient client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      ++failures;
      return;
    }
    for (int round = 0; round < kRounds; ++round) {
      if (!client.Add("members", {"writer-" + std::to_string(round)}).ok()) {
        ++failures;
        return;
      }
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ExpectServerAlive();
}

TEST_F(ServerProtocolTest, StopWithConnectionsOpen) {
  // Stop() must unblock and join connection threads parked in recv.
  ShbfClient idle1, idle2;
  ASSERT_TRUE(idle1.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(idle2.Connect("127.0.0.1", server_->port()).ok());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // A post-stop request fails instead of hanging.
  std::vector<uint8_t> results;
  EXPECT_FALSE(idle1.Query("members", {"key-1"}, &results).ok());
}

TEST_F(ServerProtocolTest, MultisetOpcodesWithoutCatalogAreUnsupported) {
  // The base fixture serves filters but no catalog: every multiset opcode
  // answers UNSUPPORTED (an op-level error — the connection keeps serving),
  // and a malformed WHICH_SETS payload is still a BAD_FRAME.
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::vector<std::vector<uint32_t>> which;
  EXPECT_EQ(client.WhichSets({"key-1"}, &which).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(client.IndexAdd("s", {"k"}).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(client.IndexDrop("s").code(), Status::Code::kFailedPrecondition);
  ShbfClient::MultisetInfo info;
  EXPECT_EQ(client.MultisetList(&info).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_TRUE(client.connected());

  ByteWriter garbage;
  garbage.PutU8(static_cast<uint8_t>(wire::Opcode::kWhichSets));
  garbage.PutU64(uint64_t{1} << 60);  // key-count bomb
  net::CloseFd(
      ExpectError(wire::Frame(garbage.Take()), wire::WireStatus::kBadFrame));
  ExpectServerAlive();
}

// Above k = 64 the engine declines BloomFilter's probe path and answers
// per key. A QUERY must get the per-key answers, and the connection must
// still serve the next frame (the server used to abort here).
TEST(WideFilterServerTest, BloomAboveTheProbeBoundAnswersPerKey) {
  std::unique_ptr<MembershipFilter> filter = BuildFilter("bloom", 2000, 72);
  // Members and non-members, in two frames.
  std::vector<std::string> frames[2];
  std::vector<uint8_t> expected[2];
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    frames[i % 2].push_back(key);
    expected[i % 2].push_back(filter->Contains(key) ? 1 : 0);
  }
  ShbfServer server;
  CheckOk(server.RegisterFilter("wide", std::move(filter)));
  CheckOk(server.Start());
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int f = 0; f < 2; ++f) {
    std::vector<uint8_t> results;
    ASSERT_TRUE(client.Query("wide", frames[f], &results).ok()) << f;
    EXPECT_EQ(results, expected[f]) << f;
  }
}

// Two connections SNAPSHOT one heap filter to one path while a third
// RELOADs from it. A heap SNAPSHOT writes outside the filter lock, so the
// two writes overlap: each needs a temp file of its own (a shared one fails
// a SNAPSHOT), and each must reach the path by rename (an in-place rewrite
// hands RELOAD a torn envelope). The 1 MB bit array makes each write(2)
// long enough for a RELOAD to land inside it.
TEST(SnapshotRaceTest, ConcurrentSnapshotsAndReloadsOfOnePathAllSucceed) {
  FilterSpec spec = FilterSpec::ForKeys(2000, 12.0, 8);
  spec.num_cells = 8'000'000;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create("shbf_m", spec, &filter));
  std::vector<std::string> probes;
  for (int i = 0; i < 4000; ++i) probes.push_back("key-" + std::to_string(i));
  for (int i = 0; i < 2000; ++i) filter->Add(probes[i]);
  std::vector<uint8_t> expected;
  for (const auto& key : probes) expected.push_back(filter->Contains(key));

  ShbfServer server;
  CheckOk(server.RegisterFilter("members", std::move(filter)));
  CheckOk(server.Start());
  const std::string path = ::testing::TempDir() + "/server_snapshot_race.shbf";
  {
    ShbfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.Snapshot("members", path).ok());
  }

  constexpr int kRounds = 30;
  std::mutex mu;
  std::vector<std::string> failures;
  auto run = [&](bool reload) {
    ShbfClient client;
    Status s = client.Connect("127.0.0.1", server.port());
    for (int round = 0; s.ok() && round < kRounds; ++round) {
      s = reload ? client.Reload("members", path)
                 : client.Snapshot("members", path);
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      failures.push_back(s.ToString());
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(run, false);
  threads.emplace_back(run, false);
  threads.emplace_back(run, true);
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(failures.empty()) << failures.front();

  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint8_t> results;
  ASSERT_TRUE(client.Query("members", probes, &results).ok());
  EXPECT_EQ(results, expected);
  server.Stop();
  std::remove(path.c_str());
}

/// Builds the deterministic multiset catalog the wire tests serve: shbf_m
/// sets of one geometry (a SetSlice), every 8th set a cuckoo (a
/// CuckooSlice once there are two) and set s5 a shbf_x (scanned), so a
/// catalog of more than 8 sets reaches all three index paths.
/// Construction is seed-stable, so building it twice yields bit-identical
/// filters — the local copy is the brute-force reference.
SetCatalog BuildTestCatalog(size_t num_sets, size_t keys_per_set) {
  SetCatalog catalog;
  for (size_t i = 0; i < num_sets; ++i) {
    FilterSpec spec = FilterSpec::ForKeys(keys_per_set, 64.0, 4);
    spec.max_count = 8;
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create(
        i % 8 == 7 ? "cuckoo" : i == 5 ? "shbf_x" : "shbf_m", spec, &filter));
    for (size_t k = 0; k < keys_per_set; ++k) {
      filter->Add("s" + std::to_string(i) + "-k" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("s" + std::to_string(i), std::move(filter)));
  }
  return catalog;
}

TEST(MultisetServerTest, WhichSetsBitIdenticalToLocalBruteForce) {
  ShbfServer server;
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(24, 60)).ok());
  ASSERT_TRUE(server.Start().ok())
      << "no filters needed when a catalog is served";

  SetCatalog reference = BuildTestCatalog(24, 60);
  std::vector<std::string> keys;
  for (size_t i = 0; i < 24; i += 2) {
    keys.push_back("s" + std::to_string(i) + "-k0");
  }
  for (int i = 0; i < 300; ++i) keys.push_back("absent-" + std::to_string(i));

  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<std::vector<uint32_t>> which;
  ASSERT_TRUE(client.WhichSets(keys, &which).ok());
  ASSERT_EQ(which.size(), keys.size());
  for (size_t q = 0; q < keys.size(); ++q) {
    std::vector<uint32_t> want;
    for (const SetCatalog::SetEntry* entry : reference.Entries()) {
      if (entry->filter->Contains(keys[q])) want.push_back(entry->id);
    }
    EXPECT_EQ(which[q], want) << "wire answer diverges at key " << q;
  }

  ShbfClient::MultisetInfo info;
  ASSERT_TRUE(client.MultisetList(&info).ok());
  EXPECT_EQ(info.sets.size(), 24u);
  EXPECT_EQ(info.slices, 2u);  // the 20 shbf_m sets, the 3 cuckoo sets
  EXPECT_EQ(info.scan_sets, 1u);  // s5, the shbf_x set
  EXPECT_EQ(info.levels, 1u);
  EXPECT_GT(info.summary_memory_bytes, 0u);
  EXPECT_EQ(info.sets[0].name, "s0");
  EXPECT_EQ(info.sets[0].elements, 60u);
}

/// Sends HELLO then `frame` on a fresh connection and returns the response
/// body (status byte and payload); empty if the server closed instead.
std::string ExchangeRaw(uint16_t port, const std::string& frame) {
  Status status;
  const int fd = net::ConnectTcp("127.0.0.1", port, &status);
  EXPECT_GE(fd, 0) << status.ToString();
  if (fd < 0) return "";
  std::string response;
  const std::string hello = wire::BuildHello();
  if (!net::SendAll(fd, hello.data(), hello.size()) ||
      net::ReadFrame(fd, wire::kMaxFrameBytes, &response) !=
          net::FrameRead::kOk ||
      !net::SendAll(fd, frame.data(), frame.size()) ||
      net::ReadFrame(fd, wire::kMaxFrameBytes, &response) !=
          net::FrameRead::kOk) {
    response.clear();
  }
  net::CloseFd(fd);
  return response;
}

TEST(MultisetServerTest, WhichSetsBytesEqualInProcessRowsPastOneWord) {
  // 70 sets, so each answer row spans two words: the cuckoo sets reach id
  // 63, a word's top bit, and shbf_m sets hold ids 64-69.
  ShbfServer server;
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(70, 20)).ok());
  ASSERT_TRUE(server.Start().ok());
  SetCatalog local = BuildTestCatalog(70, 20);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&local, {}, &index).ok());
  ASSERT_EQ(index->id_bound(), 70u);

  std::vector<std::string> keys;
  for (size_t i = 0; i < 70; ++i) {
    keys.push_back("s" + std::to_string(i) + "-k" + std::to_string(i % 20));
  }
  for (int i = 0; i < 100; ++i) keys.push_back("absent-" + std::to_string(i));
  SetIdRows rows;
  index->WhichSetsBatch(keys, &rows);
  ASSERT_TRUE(rows.Test(63, 63) && rows.Test(64, 64) && rows.Test(69, 69));
  ByteWriter answer;
  answer.PutU64(rows.rows());
  for (size_t i = 0; i < rows.rows(); ++i) {
    answer.PutU32(static_cast<uint32_t>(rows.Count(i)));
    rows.ForEachId(i, [&](uint32_t id) { answer.PutU32(id); });
  }
  EXPECT_EQ(ExchangeRaw(server.port(), wire::BuildWhichSets(keys)),
            wire::BuildOk(answer.Take()).substr(4));
  server.Stop();
}

TEST(MultisetServerTest, WhichSetsAnswerBudgetRefusesBeforeAllocating) {
  // A catalog whose next_id is forged to the 2^20 id limit, which
  // Deserialize accepts, makes each answer row 2^14 words (128 KiB). 4096
  // keys would need 512 MiB of rows, over the 256 MiB per-frame budget:
  // TOO_LARGE, before any row is allocated. 16 keys (2 MiB) answer OK.
  std::string blob = BuildTestCatalog(4, 20).Serialize();
  constexpr uint32_t kBound = uint32_t{1} << 20;
  for (int b = 0; b < 4; ++b) {  // the u32 after the magic and the version
    blob[5 + b] = static_cast<char>((kBound >> (8 * b)) & 0xff);
  }
  SetCatalog catalog;
  ASSERT_TRUE(
      SetCatalog::Deserialize(blob, FilterRegistry::Global(), &catalog).ok());
  ASSERT_EQ(catalog.id_bound(), kBound);
  ShbfServer server;
  ASSERT_TRUE(server.ServeCatalog(std::move(catalog)).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("s" + std::to_string(i % 4) + "-k" +
                   std::to_string(i % 20));
  }
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<std::vector<uint32_t>> which;
  EXPECT_EQ(client.WhichSets(keys, &which).code(), Status::Code::kOutOfRange);
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  // ru_maxrss is in KiB. Zero-filled rows would raise the peak by about
  // 512 MiB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 128 * 1024)
      << "the refused frame's rows were allocated";

  // TOO_LARGE closes its connection; the server keeps serving.
  ShbfClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server.port()).ok());
  keys.resize(16);
  ASSERT_TRUE(again.WhichSets(keys, &which).ok());
  ASSERT_EQ(which.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto set = static_cast<uint32_t>(i % 4);
    EXPECT_NE(std::find(which[i].begin(), which[i].end(), set),
              which[i].end())
        << keys[i];
  }
  server.Stop();
}

TEST(MultisetServerTest, IndexAddAndDropMaintainTheIndexIncrementally) {
  ShbfServer server;
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(16, 40)).ok());
  ASSERT_TRUE(server.Start().ok());
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Incremental adds are visible to the very next WHICH_SETS, through the
  // shbf_m slice (s2), the cuckoo slice (s7 is a cuckoo lane) and the scan
  // (s5 is the shbf_x set).
  uint64_t added = 0;
  ASSERT_TRUE(client.IndexAdd("s2", {"fresh-a", "fresh-b"}, &added).ok());
  EXPECT_EQ(added, 2u);
  ASSERT_TRUE(client.IndexAdd("s7", {"fresh-a"}).ok());
  ASSERT_TRUE(client.IndexAdd("s5", {"fresh-a"}).ok());
  std::vector<std::vector<uint32_t>> which;
  ASSERT_TRUE(client.WhichSets({"fresh-a", "fresh-b"}, &which).ok());
  for (uint32_t id : {2u, 5u, 7u}) {
    EXPECT_NE(std::find(which[0].begin(), which[0].end(), id), which[0].end())
        << "s" << id;
  }
  EXPECT_NE(std::find(which[1].begin(), which[1].end(), 2u), which[1].end());

  EXPECT_EQ(client.IndexAdd("nope", {"k"}).code(), Status::Code::kNotFound);

  // Drops detach the set at once, whichever path answered for it; its id
  // is never reported again.
  uint64_t remaining = 0;
  ASSERT_TRUE(client.IndexDrop("s2", &remaining).ok());
  EXPECT_EQ(remaining, 15u);
  EXPECT_EQ(client.IndexDrop("s2").code(), Status::Code::kNotFound);
  ASSERT_TRUE(client.IndexDrop("s5").ok());
  ASSERT_TRUE(client.IndexDrop("s7", &remaining).ok());
  EXPECT_EQ(remaining, 13u);
  ASSERT_TRUE(
      client.WhichSets({"fresh-a", "s2-k0", "s5-k0", "s7-k0"}, &which).ok());
  for (const auto& ids : which) {
    for (uint32_t id : {2u, 5u, 7u}) {
      EXPECT_EQ(std::find(ids.begin(), ids.end(), id), ids.end()) << "s" << id;
    }
  }
  // The other sets still answer: s15 is the cuckoo slice's other lane.
  ASSERT_TRUE(client.WhichSets({"s3-k0", "s15-k0"}, &which).ok());
  EXPECT_NE(std::find(which[0].begin(), which[0].end(), 3u), which[0].end());
  EXPECT_NE(std::find(which[1].begin(), which[1].end(), 15u), which[1].end());
  ShbfClient::MultisetInfo info;
  ASSERT_TRUE(client.MultisetList(&info).ok());
  EXPECT_EQ(info.sets.size(), 13u);
  EXPECT_EQ(info.slices, 2u);
  EXPECT_EQ(info.scan_sets, 0u);
}

TEST(MultisetServerTest, WhichSetsRespectsTheKeysPerFrameLimit) {
  ServerOptions options;
  options.max_keys_per_frame = 4;
  ShbfServer server(options);
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(4, 20)).ok());
  ASSERT_TRUE(server.Start().ok());
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<std::vector<uint32_t>> which;
  EXPECT_EQ(client.WhichSets({"a", "b", "c", "d", "e"}, &which).code(),
            Status::Code::kOutOfRange);
}

// A key count over max_keys_per_frame draws TOO_LARGE, which is fatal, on
// every opcode that carries keys. The count alone decides it: a frame that
// could hold that many keys but whose first key is malformed still gets
// TOO_LARGE, not the BAD_FRAME decoding the keys would find.
TEST(MultisetServerTest, OverLimitKeyCountIsRefusedBeforeDecoding) {
  constexpr uint64_t kLimit = 16;
  ServerOptions options;
  options.max_keys_per_frame = kLimit;
  ShbfServer server(options);
  ASSERT_TRUE(
      server.RegisterFilter("members", BuildFilter("counting_bloom", 100))
          .ok());
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(4, 20)).ok());
  ASSERT_TRUE(server.Start().ok());

  auto head = [](wire::Opcode opcode, std::string_view name, bool mode) {
    ByteWriter writer;
    writer.PutU8(static_cast<uint8_t>(opcode));
    if (!name.empty()) wire::WriteString(&writer, name);
    if (mode) writer.PutU8(static_cast<uint8_t>(wire::QueryMode::kMembership));
    return writer.Take();
  };
  const std::string heads[] = {
      head(wire::Opcode::kQuery, "members", true),
      head(wire::Opcode::kAdd, "members", false),
      head(wire::Opcode::kRemove, "members", false),
      head(wire::Opcode::kWhichSets, "", false),
      head(wire::Opcode::kIndexAdd, "s1", false),
  };
  for (const std::string& prefix : heads) {
    for (bool malformed_key : {false, true}) {
      SCOPED_TRACE("opcode " + std::to_string(prefix[0]) +
                   (malformed_key ? ", malformed first key" : ""));
      ByteWriter body;
      body.PutBytes(prefix.data(), prefix.size());
      body.PutU64(kLimit + 1);
      // kLimit + 1 empty keys, or the same bytes with the first length
      // claiming more than the frame holds.
      body.PutU32(malformed_key ? 1000 : 0);
      for (uint64_t k = 0; k < kLimit; ++k) body.PutU32(0);

      Status status;
      const int fd = net::ConnectTcp("127.0.0.1", server.port(), &status);
      ASSERT_GE(fd, 0) << status.ToString();
      const std::string hello = wire::BuildHello();
      const std::string frame = wire::Frame(body.Take());
      std::string response;
      ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size()));
      ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
                net::FrameRead::kOk);
      ASSERT_TRUE(net::SendAll(fd, frame.data(), frame.size()));
      ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
                net::FrameRead::kOk);
      wire::WireStatus wire_status;
      std::string_view payload;
      std::string message;
      ASSERT_TRUE(
          wire::ParseResponse(response, &wire_status, &payload, &message));
      EXPECT_EQ(wire_status, wire::WireStatus::kTooLarge)
          << wire::WireStatusName(wire_status) << ": " << message;
      // Fatal: the server closed the connection after answering.
      const std::string list = wire::BuildList();
      net::SendAll(fd, list.data(), list.size());
      EXPECT_NE(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
                net::FrameRead::kOk);
      net::CloseFd(fd);
    }
  }
}

TEST(MultisetServerTest, OversizedWhichSetsResponseIsRefusedNotCorrupted) {
  // The WHICH_SETS response scales with keys × MATCHING ids — heavily
  // overlapping sets make the answer far larger than the request. A frame
  // whose answer would blow the frame limit draws TOO_LARGE instead of an
  // oversized (or, past 4 GiB, length-wrapped) response.
  SetCatalog catalog;
  for (int i = 0; i < 16; ++i) {
    FilterSpec spec = FilterSpec::ForKeys(30, 64.0, 4);
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create("shbf_m", spec, &filter));
    for (int k = 0; k < 30; ++k) filter->Add("shared-" + std::to_string(k));
    CheckOk(catalog.AddSet("o" + std::to_string(i), std::move(filter)));
  }
  ServerOptions options;
  options.max_frame_bytes = 512;  // request ~300 B, answer ~2 KB
  ShbfServer server(options);
  ASSERT_TRUE(server.ServeCatalog(std::move(catalog)).ok());
  ASSERT_TRUE(server.Start().ok());
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<std::string> keys;
  for (int k = 0; k < 20; ++k) keys.push_back("shared-" + std::to_string(k));
  std::vector<std::vector<uint32_t>> which;
  EXPECT_EQ(client.WhichSets(keys, &which).code(),
            Status::Code::kOutOfRange);
  // TOO_LARGE is fatal: the server closed the connection.
  EXPECT_EQ(client.WhichSets({"x"}, &which).code(),
            Status::Code::kFailedPrecondition);  // "not connected"
}

TEST(MultisetServerTest, OlderProtocolVersionStillServes) {
  // v2 only added opcodes: a v1 HELLO must be accepted (echoing v1) and
  // the v1 opcodes must serve; only unknown versions draw the loud
  // mismatch (covered by HelloBadMagicOrVersion).
  ShbfServer server;
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(4, 20)).ok());
  ASSERT_TRUE(server.Start().ok());
  Status status;
  int fd = net::ConnectTcp("127.0.0.1", server.port(), &status);
  ASSERT_GE(fd, 0) << status.ToString();
  ByteWriter hello;
  hello.PutU8(static_cast<uint8_t>(wire::Opcode::kHello));
  hello.PutU32(wire::kMagic);
  hello.PutU8(1);  // yesterday's client
  const std::string hello_frame = wire::Frame(hello.Take());
  std::string response;
  ASSERT_TRUE(net::SendAll(fd, hello_frame.data(), hello_frame.size()));
  ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  ASSERT_GE(response.size(), 2u);
  EXPECT_EQ(static_cast<wire::WireStatus>(response[0]), wire::WireStatus::kOk);
  EXPECT_EQ(static_cast<uint8_t>(response[1]), 1)
      << "server must echo the version this connection speaks";
  // A v1 opcode still works on the same connection.
  std::string list = wire::BuildList();
  ASSERT_TRUE(net::SendAll(fd, list.data(), list.size()));
  ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  EXPECT_EQ(static_cast<wire::WireStatus>(response[0]), wire::WireStatus::kOk);
  net::CloseFd(fd);
}

TEST(MultisetServerTest, ConcurrentWhichSetsReadersAndOneMaintainer) {
  ShbfServer server;
  ASSERT_TRUE(server.ServeCatalog(BuildTestCatalog(16, 40)).ok());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      ShbfClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      // s1's keys (a slot of the shbf_m slice), s7's (a lane of the
      // cuckoo slice) and s5's (the scanned shbf_x set), 40 members each
      // followed by 24 absent keys. The maintainer writes into s7 and s5.
      std::vector<std::string> keys;
      for (const char* set : {"s1", "s7", "s5"}) {
        for (int i = 0; i < 64; ++i) {
          keys.push_back(set + ("-k" + std::to_string(i)));
        }
      }
      for (int round = 0; round < 30; ++round) {
        std::vector<std::vector<uint32_t>> which;
        if (!client.WhichSets(keys, &which).ok()) {
          ++failures;
          return;
        }
        // Each set's own keys must always report it (no false negatives,
        // even mid-maintenance).
        for (int i = 0; i < 40; ++i) {
          if (std::find(which[i].begin(), which[i].end(), 1u) ==
                  which[i].end() ||
              std::find(which[64 + i].begin(), which[64 + i].end(), 7u) ==
                  which[64 + i].end() ||
              std::find(which[128 + i].begin(), which[128 + i].end(), 5u) ==
                  which[128 + i].end()) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  std::thread maintainer([&] {
    ShbfClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      ++failures;
      return;
    }
    for (int round = 0; round < 30; ++round) {
      const std::string key = "churn-" + std::to_string(round);
      if (!client.IndexAdd("s3", {key}).ok() ||
          !client.IndexAdd("s7", {key}).ok() ||
          !client.IndexAdd("s5", {key}).ok()) {
        ++failures;
        return;
      }
    }
  });
  for (auto& reader : readers) reader.join();
  maintainer.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- METRICS opcode parity (protocol v3) ----------------------------------
// The acceptance contract: the wire snapshot's four core "server.*_total"
// counters must be bit-identical to the in-process counters() accessor.
// The snapshot includes its own METRICS frame (frames are counted before
// handling), so a quiesced counters() read taken right after the response
// must agree exactly.
class ServerMetricsParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ShbfServer>();
    CheckOk(server_->RegisterFilter("members", BuildFilter("shbf_m", 2000)));
    CheckOk(server_->Start());
  }

  void TearDown() override { server_->Stop(); }

  std::unique_ptr<ShbfServer> server_;
};

TEST_F(ServerMetricsParityTest, SnapshotMatchesCountersBitForBit) {
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("key-" + std::to_string(i));
  std::vector<uint8_t> results;
  ASSERT_TRUE(client.Query("members", keys, &results).ok());
  // A deliberate protocol error, so the error counter is nonzero too.
  ASSERT_FALSE(client.Query("no-such-filter", keys, &results).ok());

  ShbfClient::ServerMetrics metrics;
  ASSERT_TRUE(client.Metrics(&metrics).ok());
  const ShbfServer::Counters counters = server_->counters();

  EXPECT_EQ(metrics.snapshot.CounterValue("server.frames_total"),
            counters.frames);
  EXPECT_EQ(metrics.snapshot.CounterValue("server.connections_total"),
            counters.connections);
  EXPECT_EQ(metrics.snapshot.CounterValue("server.keys_queried_total"),
            counters.keys_queried);
  EXPECT_EQ(metrics.snapshot.CounterValue("server.protocol_errors_total"),
            counters.protocol_errors);
  EXPECT_GE(counters.keys_queried, keys.size());
  EXPECT_GE(counters.protocol_errors, 1u);

  EXPECT_EQ(metrics.version, counters.version);
  EXPECT_FALSE(metrics.version.empty());
  EXPECT_FALSE(metrics.cpu.empty());

  if (obs::kCompiledIn && obs::Enabled()) {
    // Per-opcode instrumentation saw the QUERY frames and the METRICS
    // frame itself (global registry: >=, not ==, across tests).
    EXPECT_GE(metrics.snapshot.CounterValue("server.op.query.frames_total"),
              1u);
    EXPECT_GE(
        metrics.snapshot.CounterValue("server.op.metrics.frames_total"), 1u);
    const obs::HistogramSnapshot* handle_query =
        metrics.snapshot.FindHistogram("server.handle_us.query");
    ASSERT_NE(handle_query, nullptr);
    EXPECT_GE(handle_query->count, 1u);
  }
}

TEST_F(ServerMetricsParityTest, SecondSnapshotCountsTheFirst) {
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ShbfClient::ServerMetrics first;
  ASSERT_TRUE(client.Metrics(&first).ok());
  ShbfClient::ServerMetrics second;
  ASSERT_TRUE(client.Metrics(&second).ok());
  EXPECT_EQ(second.snapshot.CounterValue("server.frames_total"),
            first.snapshot.CounterValue("server.frames_total") + 1);
}

}  // namespace
}  // namespace shbf
