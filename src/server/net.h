// Minimal POSIX TCP helpers shared by ShbfServer, ShbfClient and the
// protocol-robustness tests: listen/connect, full-buffer send/recv, and
// one-frame reads with the length-prefix discipline of protocol.h.
//
// Deliberately thin and blocking: the calls serve the client library, the
// server's connection threads, and the tests.

#ifndef SHBF_SERVER_NET_H_
#define SHBF_SERVER_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/status.h"

namespace shbf {
namespace net {

/// Creates a listening TCP socket bound to `bind_address:port` (port 0 =
/// ephemeral). Returns the fd, or -1 with `*status` explaining why.
int ListenTcp(const std::string& bind_address, uint16_t port, Status* status);

/// The locally-bound port of a socket (resolves port 0 after ListenTcp).
uint16_t LocalPort(int fd);

/// Blocking connect. Returns the fd, or -1 with `*status` explaining why.
int ConnectTcp(const std::string& host, uint16_t port, Status* status);

/// Writes all `len` bytes (SIGPIPE-safe). False on any send failure.
bool SendAll(int fd, const void* data, size_t len);

/// Reads exactly `len` bytes. False on EOF or error before `len` arrive.
bool RecvAll(int fd, void* data, size_t len);

/// Outcome of ReadFrame.
enum class FrameRead {
  kOk,         ///< one complete frame body in `*body`
  kClosed,     ///< clean EOF before any prefix byte (peer hung up idle)
  kTruncated,  ///< EOF or error mid-prefix / mid-body
  kTooLarge,   ///< prefix exceeds `max_frame_bytes` (body not read)
  kEmpty,      ///< prefix of 0 (a frame must carry at least an opcode)
};

/// Reads one length-prefixed frame body. On kTooLarge/kEmpty nothing past
/// the prefix is consumed — callers answer and close.
FrameRead ReadFrame(int fd, size_t max_frame_bytes, std::string* body);

/// Sends an already-framed (length-prefixed) message.
inline bool SendFrame(int fd, std::string_view frame) {
  return SendAll(fd, frame.data(), frame.size());
}

/// shutdown(SHUT_RDWR) — unblocks any thread inside recv on `fd`.
void ShutdownFd(int fd);

/// shutdown(SHUT_RD) only: unblocks a thread inside recv while letting an
/// in-flight send on another thread finish — the drain half of Stop().
void ShutdownReadFd(int fd);

/// close(fd), ignoring errors; no-op on fd < 0.
void CloseFd(int fd);

}  // namespace net
}  // namespace shbf

#endif  // SHBF_SERVER_NET_H_
