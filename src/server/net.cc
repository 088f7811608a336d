#include "server/net.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace shbf {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

int ListenTcp(const std::string& bind_address, uint16_t port, Status* status) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = Status::Internal(Errno("socket"));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    *status = Status::InvalidArgument("bad bind address: " + bind_address);
    CloseFd(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *status = Status::Internal(Errno("bind " + bind_address));
    CloseFd(fd);
    return -1;
  }
  // 1024: the acceptor spawns one thread per accept, so the backlog holds
  // a connect storm (C1K and up) while it catches up.
  if (::listen(fd, 1024) != 0) {
    *status = Status::Internal(Errno("listen"));
    CloseFd(fd);
    return -1;
  }
  *status = Status::Ok();
  return fd;
}

uint16_t LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int ConnectTcp(const std::string& host, uint16_t port, Status* status) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &results);
  if (rc != 0) {
    *status = Status::NotFound("resolve " + host + ": " + gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    CloseFd(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    *status = Status::Internal(
        Errno("connect " + host + ":" + std::to_string(port)));
    return -1;
  }
  // Batched request/response frames are the unit of latency here; never
  // let Nagle hold a frame back waiting for a segment to fill.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *status = Status::Ok();
  return fd;
}

bool SendAll(int fd, const void* data, size_t len) {
  const char* cursor = static_cast<const char*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that hung up surfaces as EPIPE, not SIGPIPE.
    ssize_t sent = ::send(fd, cursor, len, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    cursor += sent;
    len -= static_cast<size_t>(sent);
  }
  return true;
}

bool RecvAll(int fd, void* data, size_t len) {
  char* cursor = static_cast<char*>(data);
  while (len > 0) {
    ssize_t got = ::recv(fd, cursor, len, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    cursor += got;
    len -= static_cast<size_t>(got);
  }
  return true;
}

FrameRead ReadFrame(int fd, size_t max_frame_bytes, std::string* body) {
  uint8_t prefix[4];
  // Distinguish a clean hang-up (EOF at a frame boundary) from a truncated
  // prefix: read the first byte alone.
  ssize_t got;
  do {
    got = ::recv(fd, prefix, 1, 0);
  } while (got < 0 && errno == EINTR);
  if (got == 0) return FrameRead::kClosed;
  if (got < 0) return FrameRead::kTruncated;
  if (!RecvAll(fd, prefix + 1, 3)) return FrameRead::kTruncated;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(prefix[i]) << (8 * i);
  }
  if (length == 0) return FrameRead::kEmpty;
  if (length > max_frame_bytes) return FrameRead::kTooLarge;
  body->resize(length);
  if (!RecvAll(fd, body->data(), length)) return FrameRead::kTruncated;
  return FrameRead::kOk;
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void ShutdownReadFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace net
}  // namespace shbf
