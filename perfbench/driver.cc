#include "driver.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>

#include "core/serde.h"
#include "server/net.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest a response may take before the run counts it as lost.
constexpr int kResponseTimeoutMs = 30000;

/// Bytes asked of one recv; responses arrive in batches, so one call
/// usually retires several frames.
constexpr size_t kRecvBytes = size_t{1} << 18;

struct InFlight {
  const Frame* frame;
  Clock::time_point sent;
  uint64_t id;
};

struct Connection {
  int fd = -1;
  const std::vector<const Frame*>* schedule = nullptr;
  size_t next = 0;
  std::deque<InFlight> in_flight;
  std::string out;     ///< requests of one refill, sent with one call
  std::string in;      ///< received bytes not yet parsed
  size_t in_pos = 0;   ///< parse offset into `in`
};

}  // namespace

void DriveResult::Merge(const DriveResult& other) {
  frames_attempted += other.frames_attempted;
  frames_failed += other.frames_failed;
  mismatches += other.mismatches;
  keys += other.keys;
  seconds += other.seconds;
  cpu_seconds += other.cpu_seconds;
  read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
  add_us.insert(add_us.end(), other.add_us.begin(), other.add_us.end());
  if (first_error.empty()) first_error = other.first_error;
}

DriveResult Drive(const std::vector<int>& fds,
                  const std::vector<std::vector<const Frame*>>& schedule,
                  size_t window, double seconds, Tracer* tracer) {
  DriveResult result;
  std::vector<Connection> conns(fds.size());
  for (size_t c = 0; c < fds.size(); ++c) {
    conns[c].fd = fds[c];
    conns[c].schedule = &schedule[c];
  }
  const bool cycle = seconds > 0;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t next_id = 0;
  bool broken = false;

  // Tops the connection's window up and sends the new frames in one call.
  auto fill = [&](Connection& conn) {
    const std::vector<const Frame*>& frames = *conn.schedule;
    const Clock::time_point now = Clock::now();
    conn.out.clear();
    while (conn.in_flight.size() < window && !frames.empty()) {
      if (cycle ? now >= deadline : conn.next >= frames.size()) break;
      const Frame* frame = frames[conn.next++ % frames.size()];
      ++result.frames_attempted;
      conn.in_flight.push_back({frame, now, next_id++});
      conn.out += frame->request;
    }
    if (!conn.out.empty() &&
        !shbf::net::SendAll(conn.fd, conn.out.data(), conn.out.size())) {
      result.first_error = "send failed";
      broken = true;
    }
  };

  // Retires one response body.
  auto retire = [&](Connection& conn, std::string_view body,
                    Clock::time_point now) {
    const InFlight done = conn.in_flight.front();
    conn.in_flight.pop_front();
    const double us =
        std::chrono::duration<double, std::micro>(now - done.sent).count();
    (done.frame->is_add ? result.add_us : result.read_us).push_back(us);
    if (tracer != nullptr) {
      tracer->Record("client.frame", done.id, -1, done.sent, now,
                     done.frame->keys.size());
    }
    if (body.empty() || body[0] != 0) {
      ++result.frames_failed;
      if (result.first_error.empty()) {
        result.first_error =
            std::string("server answered ") +
            shbf::wire::WireStatusName(static_cast<shbf::wire::WireStatus>(
                body.empty() ? 0xff : static_cast<uint8_t>(body[0])));
      }
      return;
    }
    result.keys += done.frame->keys.size();
    std::string why;
    if (!CheckResponse(*done.frame, body, &why)) {
      ++result.mismatches;
      if (result.first_error.empty()) result.first_error = why;
    }
  };

  // Reads what has arrived and retires every complete frame in it.
  std::vector<char> chunk(kRecvBytes);
  auto receive = [&](Connection& conn) {
    const ssize_t got = ::recv(conn.fd, chunk.data(), chunk.size(), 0);
    if (got <= 0) {
      result.first_error = "connection dropped";
      broken = true;
      return;
    }
    const Clock::time_point now = Clock::now();
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
    conn.in.append(chunk.data(), static_cast<size_t>(got));
    while (conn.in.size() - conn.in_pos >= 4) {
      uint32_t length = 0;
      shbf::ByteReader prefix(std::string_view(conn.in).substr(conn.in_pos, 4));
      prefix.GetU32(&length);
      if (length > shbf::wire::kMaxFrameBytes || conn.in_flight.empty()) {
        result.first_error = "malformed response stream";
        broken = true;
        return;
      }
      if (conn.in.size() - conn.in_pos - 4 < length) break;
      retire(conn, std::string_view(conn.in).substr(conn.in_pos + 4, length),
             now);
      conn.in_pos += 4 + length;
    }
    fill(conn);
  };

  for (Connection& conn : conns) fill(conn);
  std::vector<pollfd> polls;
  std::vector<Connection*> polled;
  Clock::time_point last_response = start;
  while (!broken) {
    polls.clear();
    polled.clear();
    for (Connection& conn : conns) {
      if (conn.in_flight.empty()) continue;
      polls.push_back({conn.fd, POLLIN, 0});
      polled.push_back(&conn);
    }
    if (polls.empty()) break;
    const int ready = ::poll(polls.data(), polls.size(), kResponseTimeoutMs);
    if (ready <= 0) {
      result.first_error = ready == 0 ? "response timeout" : "poll failed";
      broken = true;
      break;
    }
    for (size_t p = 0; p < polls.size() && !broken; ++p) {
      if (polls[p].revents != 0) receive(*polled[p]);
    }
    last_response = Clock::now();
  }
  if (broken) {
    for (const Connection& conn : conns) {
      result.frames_failed += conn.in_flight.size();
    }
  }
  result.seconds = std::chrono::duration<double>(last_response - start).count();
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return result;
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

}  // namespace perfbench
