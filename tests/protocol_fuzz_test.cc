// Deterministic protocol fuzzer: takes one valid frame per opcode, then
// flips, truncates and extends its bytes (length prefix included) under a
// seeded mt19937, and throws each mutant at a live server. The contract
// under arbitrary garbage is narrow: every connection must end with a
// parseable response stream followed by EOF, or a plain close — never a
// crash, a hang (2 s receive timeout = failure) or a leaked connection
// slot. The ASan+UBSan and TSan CI jobs run this suite too, so "no crash"
// includes "no silent memory error" and "no data race".

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"

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

/// One valid frame per opcode — the fuzz corpus. SNAPSHOT is left out on
/// purpose: a mutated path could make the server write a stray file, and
/// the path-parsing code it would exercise is identical to RELOAD's.
std::vector<std::string> BuildCorpus() {
  const std::vector<std::string> keys = {"key-1", "key-2", "absent"};
  std::vector<std::string> corpus;
  corpus.push_back(wire::BuildHello());
  corpus.push_back(
      wire::BuildQuery("members", wire::QueryMode::kMembership, keys));
  corpus.push_back(
      wire::BuildQuery("counting", wire::QueryMode::kCount, keys));
  corpus.push_back(
      wire::BuildKeysRequest(wire::Opcode::kAdd, "counting", keys));
  corpus.push_back(
      wire::BuildKeysRequest(wire::Opcode::kRemove, "counting", keys));
  corpus.push_back(wire::BuildNameRequest(wire::Opcode::kStats, "members"));
  corpus.push_back(wire::BuildList());
  corpus.push_back(wire::BuildPathRequest(wire::Opcode::kReload, "members",
                                          "/nonexistent/fuzz.shbf"));
  corpus.push_back(wire::BuildWhichSets(keys));
  corpus.push_back(
      wire::BuildKeysRequest(wire::Opcode::kIndexAdd, "members", keys));
  corpus.push_back(
      wire::BuildNameRequest(wire::Opcode::kIndexDrop, "members"));
  corpus.push_back(wire::BuildEmptyRequest(wire::Opcode::kMultisetList));
  corpus.push_back(wire::BuildMetrics());
  return corpus;
}

class ProtocolFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ShbfServer>();
    CheckOk(server_->RegisterFilter("members", BuildFilter("shbf_m", 500)));
    CheckOk(
        server_->RegisterFilter("counting", BuildFilter("shbf_x", 500)));
    CheckOk(server_->Start());
  }

  void TearDown() override { server_->Stop(); }

  /// Connects with a 2 s receive timeout — the hang detector.
  int Connect() {
    Status s;
    int fd = net::ConnectTcp("127.0.0.1", server_->port(), &s);
    EXPECT_GE(fd, 0) << s.ToString();
    timeval timeout{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return fd;
  }

  /// Reads until EOF. Returns false on a receive timeout (= server hang);
  /// an RST from an aborted connection counts as a close, not a hang.
  bool DrainToEof(int fd, std::string* bytes) {
    char buffer[4096];
    while (true) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
      if (got == 0) return true;
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) return true;
        return false;  // EAGAIN: the 2 s timeout fired
      }
      bytes->append(buffer, static_cast<size_t>(got));
    }
  }

  /// The response stream must be whole frames, each starting with a known
  /// status byte — garbage in, structure out.
  void CheckResponseStream(const std::string& bytes,
                           const std::string& context) {
    size_t cursor = 0;
    while (cursor < bytes.size()) {
      ASSERT_GE(bytes.size() - cursor, 4u)
          << context << ": trailing partial length prefix";
      uint32_t length = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<uint32_t>(
                      static_cast<uint8_t>(bytes[cursor + i]))
                  << (8 * i);
      }
      cursor += 4;
      ASSERT_GE(length, 1u) << context << ": empty response frame";
      ASSERT_LE(length, wire::kMaxFrameBytes)
          << context << ": oversized response frame";
      ASSERT_GE(bytes.size() - cursor, length)
          << context << ": truncated response frame";
      const auto status = static_cast<uint8_t>(bytes[cursor]);
      ASSERT_LE(status,
                static_cast<uint8_t>(wire::WireStatus::kInternal))
          << context << ": unknown status byte " << int{status};
      cursor += length;
    }
  }

  /// One fuzz shot: optionally handshake, send the mutant, half-close,
  /// drain. Everything the server sends back must be structured.
  void Throw(const std::string& mutant, bool mutant_is_first_frame,
             const std::string& context) {
    int fd = Connect();
    std::string stream;
    if (!mutant_is_first_frame) stream = wire::BuildHello();
    stream += mutant;
    // The peer may have closed already (fatal response in flight):
    // a failed send is an acceptable outcome, not a test failure.
    (void)net::SendAll(fd, stream.data(), stream.size());
    ::shutdown(fd, SHUT_WR);
    std::string bytes;
    ASSERT_TRUE(DrainToEof(fd, &bytes)) << context << ": server hung";
    CheckResponseStream(bytes, context);
    net::CloseFd(fd);
  }

  std::unique_ptr<ShbfServer> server_;
};

TEST_F(ProtocolFuzzTest, MutatedFramesNeverCrashHangOrLeak) {
  const std::vector<std::string> corpus = BuildCorpus();
  std::mt19937 rng(0x5eedu);  // fixed seed: failures replay exactly
  constexpr int kMutationsPerKind = 24;
  for (size_t c = 0; c < corpus.size(); ++c) {
    const std::string& seed_frame = corpus[c];
    const bool is_hello = c == 0;
    for (int kind = 0; kind < 3; ++kind) {
      for (int iteration = 0; iteration < kMutationsPerKind; ++iteration) {
        std::string mutant = seed_frame;
        switch (kind) {
          case 0: {  // flip 1..4 bytes anywhere (length prefix included)
            const int flips = 1 + static_cast<int>(rng() % 4);
            for (int f = 0; f < flips; ++f) {
              mutant[rng() % mutant.size()] ^=
                  static_cast<char>(1 + rng() % 255);
            }
            break;
          }
          case 1:  // truncate to a strict prefix (possibly empty)
            mutant.resize(rng() % mutant.size());
            break;
          default: {  // extend with 1..64 random bytes
            const size_t extra = 1 + rng() % 64;
            for (size_t e = 0; e < extra; ++e) {
              mutant.push_back(static_cast<char>(rng() % 256));
            }
            break;
          }
        }
        Throw(mutant, is_hello,
              "corpus " + std::to_string(c) + " kind " +
                  std::to_string(kind) + " iteration " +
                  std::to_string(iteration));
        if (HasFatalFailure()) return;
      }
    }
  }
  // No connection slot may leak from any of the ~860 abuse rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->active_connections(), 0u);
  // And the server must still serve a well-formed client.
  ShbfClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::vector<uint8_t> results;
  ASSERT_TRUE(client.Query("members", {"key-1"}, &results).ok());
  EXPECT_EQ(results[0], 1);
}

}  // namespace
}  // namespace shbf
