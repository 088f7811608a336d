#include "server/client.h"

#include <utility>

#include "server/net.h"

namespace shbf {

namespace {

/// Maps a wire error status onto the nearest Status code, carrying the
/// server's message.
Status WireError(wire::WireStatus status, const std::string& message) {
  const std::string text =
      std::string(wire::WireStatusName(status)) + ": " + message;
  switch (status) {
    case wire::WireStatus::kUnknownFilter:
      return Status::NotFound(text);
    case wire::WireStatus::kUnsupported:
      return Status::FailedPrecondition(text);
    case wire::WireStatus::kBadFrame:
    case wire::WireStatus::kUnknownOpcode:
    case wire::WireStatus::kVersionMismatch:
      return Status::InvalidArgument(text);
    case wire::WireStatus::kTooLarge:
      return Status::OutOfRange(text);
    case wire::WireStatus::kIoError:
    case wire::WireStatus::kInternal:
    case wire::WireStatus::kOk:
      break;
  }
  return Status::Internal(text);
}

}  // namespace

ShbfClient::~ShbfClient() { Close(); }

void ShbfClient::Close() {
  net::CloseFd(fd_);
  fd_ = -1;
}

Status ShbfClient::Connect(const std::string& host, uint16_t port) {
  if (connected()) return Status::FailedPrecondition("already connected");
  Status s;
  fd_ = net::ConnectTcp(host, port, &s);
  if (fd_ < 0) return s;
  std::string body;
  std::string_view payload;
  s = RoundTrip(wire::BuildHello(), &body, &payload);
  if (!s.ok()) {
    Close();
    return s;
  }
  ByteReader reader(payload);
  uint8_t version = 0;
  if (!reader.GetU8(&version) ||
      !wire::ReadString(&reader, wire::kMaxNameBytes, &server_version_) ||
      !reader.AtEnd()) {
    Close();
    return Status::Internal("malformed HELLO response");
  }
  return Status::Ok();
}

Status ShbfClient::RoundTrip(const std::string& frame,
                             std::string* response_body,
                             std::string_view* payload) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  if (!net::SendFrame(fd_, frame)) {
    Close();
    return Status::Internal("send failed (connection lost)");
  }
  const net::FrameRead read =
      net::ReadFrame(fd_, wire::kMaxFrameBytes, response_body);
  if (read != net::FrameRead::kOk) {
    Close();
    return Status::Internal("connection closed before a response arrived");
  }
  wire::WireStatus status;
  std::string message;
  if (!wire::ParseResponse(*response_body, &status, payload, &message)) {
    Close();
    return Status::Internal("empty response frame");
  }
  if (status != wire::WireStatus::kOk) {
    // Fatal statuses are followed by a server-side close; drop our end so
    // the next call reports "not connected" instead of a recv error.
    if (wire::IsFatal(status)) Close();
    return WireError(status, message);
  }
  return Status::Ok();
}

Status ShbfClient::Query(std::string_view filter,
                         const std::vector<std::string>& keys,
                         std::vector<uint8_t>* results) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(
      wire::BuildQuery(filter, wire::QueryMode::kMembership, keys), &body,
      &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint8_t mode = 0;
  uint64_t count = 0;
  if (!reader.GetU8(&mode) || !reader.GetU64(&count) ||
      mode != static_cast<uint8_t>(wire::QueryMode::kMembership) ||
      count != keys.size() || reader.remaining() != count) {
    return Status::Internal("malformed QUERY response");
  }
  results->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t bit = 0;
    reader.GetU8(&bit);
    (*results)[i] = bit;
  }
  return Status::Ok();
}

Status ShbfClient::QueryCount(std::string_view filter,
                              const std::vector<std::string>& keys,
                              std::vector<uint64_t>* counts) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildQuery(filter, wire::QueryMode::kCount, keys),
                       &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint8_t mode = 0;
  uint64_t count = 0;
  if (!reader.GetU8(&mode) || !reader.GetU64(&count) ||
      mode != static_cast<uint8_t>(wire::QueryMode::kCount) ||
      count != keys.size() || reader.remaining() != count * 8) {
    return Status::Internal("malformed COUNT response");
  }
  counts->resize(count);
  for (uint64_t i = 0; i < count; ++i) reader.GetU64(&(*counts)[i]);
  return Status::Ok();
}

Status ShbfClient::Add(std::string_view filter,
                       const std::vector<std::string>& keys, uint64_t* added) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildKeysRequest(wire::Opcode::kAdd, filter, keys),
                       &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || !reader.AtEnd()) {
    return Status::Internal("malformed ADD response");
  }
  if (added != nullptr) *added = count;
  return Status::Ok();
}

Status ShbfClient::Remove(std::string_view filter,
                          const std::vector<std::string>& keys,
                          std::vector<uint8_t>* removed) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(
      wire::BuildKeysRequest(wire::Opcode::kRemove, filter, keys), &body,
      &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || count != keys.size() ||
      reader.remaining() != count) {
    return Status::Internal("malformed REMOVE response");
  }
  if (removed != nullptr) {
    removed->resize(count);
    for (uint64_t i = 0; i < count; ++i) reader.GetU8(&(*removed)[i]);
  }
  return Status::Ok();
}

Status ShbfClient::ReadStatsPayload(ByteReader* reader, bool with_serve_name,
                                    FilterInfo* info) {
  if (with_serve_name &&
      !wire::ReadString(reader, wire::kMaxNameBytes, &info->serve_name)) {
    return Status::Internal("malformed stats record");
  }
  if (!wire::ReadString(reader, wire::kMaxNameBytes, &info->registry_name) ||
      !reader->GetU64(&info->elements) ||
      !reader->GetU64(&info->memory_bytes) ||
      !reader->GetU32(&info->capabilities)) {
    return Status::Internal("malformed stats record");
  }
  return Status::Ok();
}

Status ShbfClient::Stats(std::string_view filter, FilterInfo* info) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildNameRequest(wire::Opcode::kStats, filter),
                       &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  info->serve_name.assign(filter.data(), filter.size());
  s = ReadStatsPayload(&reader, /*with_serve_name=*/false, info);
  if (s.ok() && !reader.AtEnd()) {
    return Status::Internal("malformed STATS response");
  }
  return s;
}

Status ShbfClient::List(std::vector<FilterInfo>* filters) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildList(), &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return Status::Internal("malformed LIST");
  filters->clear();
  for (uint32_t i = 0; i < count; ++i) {
    FilterInfo info;
    s = ReadStatsPayload(&reader, /*with_serve_name=*/true, &info);
    if (!s.ok()) return s;
    filters->push_back(std::move(info));
  }
  if (!reader.AtEnd()) return Status::Internal("malformed LIST");
  return Status::Ok();
}

Status ShbfClient::WhichSets(const std::vector<std::string>& keys,
                             std::vector<std::vector<uint32_t>>* results) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildWhichSets(keys), &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || count != keys.size()) {
    return Status::Internal("malformed WHICH_SETS response");
  }
  results->clear();
  results->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t ids = 0;
    if (!reader.GetU32(&ids) || ids > reader.remaining() / 4) {
      return Status::Internal("malformed WHICH_SETS response");
    }
    (*results)[i].resize(ids);
    for (uint32_t j = 0; j < ids; ++j) reader.GetU32(&(*results)[i][j]);
  }
  if (!reader.AtEnd()) return Status::Internal("malformed WHICH_SETS response");
  return Status::Ok();
}

Status ShbfClient::IndexAdd(std::string_view set,
                            const std::vector<std::string>& keys,
                            uint64_t* added) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(
      wire::BuildKeysRequest(wire::Opcode::kIndexAdd, set, keys), &body,
      &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || !reader.AtEnd()) {
    return Status::Internal("malformed INDEX_ADD response");
  }
  if (added != nullptr) *added = count;
  return Status::Ok();
}

Status ShbfClient::IndexDrop(std::string_view set, uint64_t* remaining) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildNameRequest(wire::Opcode::kIndexDrop, set),
                       &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || !reader.AtEnd()) {
    return Status::Internal("malformed INDEX_DROP response");
  }
  if (remaining != nullptr) *remaining = count;
  return Status::Ok();
}

Status ShbfClient::MultisetList(MultisetInfo* info) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildEmptyRequest(wire::Opcode::kMultisetList),
                       &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint32_t count = 0;
  MultisetInfo parsed;
  if (!reader.GetU32(&count) || !reader.GetU32(&parsed.slices) ||
      !reader.GetU32(&parsed.scan_sets) || !reader.GetU32(&parsed.levels) ||
      !reader.GetU64(&parsed.summary_memory_bytes)) {
    return Status::Internal("malformed MULTISET_LIST response");
  }
  for (uint32_t i = 0; i < count; ++i) {
    MultisetInfo::Set set;
    if (!reader.GetU32(&set.id) ||
        !wire::ReadString(&reader, wire::kMaxNameBytes, &set.name) ||
        !wire::ReadString(&reader, wire::kMaxNameBytes, &set.registry_name) ||
        !reader.GetU64(&set.elements)) {
      return Status::Internal("malformed MULTISET_LIST response");
    }
    parsed.sets.push_back(std::move(set));
  }
  if (!reader.AtEnd()) {
    return Status::Internal("malformed MULTISET_LIST response");
  }
  *info = std::move(parsed);
  return Status::Ok();
}

Status ShbfClient::Metrics(ServerMetrics* metrics) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(wire::BuildMetrics(), &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  ServerMetrics parsed;
  uint32_t counters = 0;
  if (!reader.GetU64(&parsed.uptime_seconds) ||
      !wire::ReadString(&reader, wire::kMaxNameBytes, &parsed.version) ||
      !wire::ReadString(&reader, wire::kMaxNameBytes, &parsed.cpu) ||
      !reader.GetU32(&counters)) {
    return Status::Internal("malformed METRICS response");
  }
  parsed.snapshot.uptime_seconds = parsed.uptime_seconds;
  parsed.snapshot.version = parsed.version;
  parsed.snapshot.cpu = parsed.cpu;
  for (uint32_t i = 0; i < counters; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!wire::ReadString(&reader, wire::kMaxNameBytes, &name) ||
        !reader.GetU64(&value)) {
      return Status::Internal("malformed METRICS counter record");
    }
    parsed.snapshot.counters.emplace_back(std::move(name), value);
  }
  uint32_t gauges = 0;
  if (!reader.GetU32(&gauges)) {
    return Status::Internal("malformed METRICS response");
  }
  for (uint32_t i = 0; i < gauges; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!wire::ReadString(&reader, wire::kMaxNameBytes, &name) ||
        !reader.GetU64(&value)) {
      return Status::Internal("malformed METRICS gauge record");
    }
    parsed.snapshot.gauges.emplace_back(std::move(name),
                                        static_cast<int64_t>(value));
  }
  uint32_t histograms = 0;
  if (!reader.GetU32(&histograms)) {
    return Status::Internal("malformed METRICS response");
  }
  for (uint32_t i = 0; i < histograms; ++i) {
    obs::HistogramSnapshot h;
    uint32_t buckets = 0;
    if (!wire::ReadString(&reader, wire::kMaxNameBytes, &h.name) ||
        !reader.GetU64(&h.count) || !reader.GetU64(&h.sum) ||
        !reader.GetU32(&buckets) || buckets > reader.remaining() / 8) {
      return Status::Internal("malformed METRICS histogram record");
    }
    // A newer server may speak a wider bucket array: fold the overflow
    // into the last bucket rather than fail (the scheme is additive).
    for (uint32_t b = 0; b < buckets; ++b) {
      uint64_t bucket = 0;
      reader.GetU64(&bucket);
      const size_t index = b < obs::kNumBuckets ? b : obs::kNumBuckets - 1;
      h.buckets[index] += bucket;
    }
    parsed.snapshot.histograms.push_back(std::move(h));
  }
  if (!reader.AtEnd()) return Status::Internal("malformed METRICS response");
  *metrics = std::move(parsed);
  return Status::Ok();
}

Status ShbfClient::Snapshot(std::string_view filter, std::string_view path,
                            uint64_t* bytes_written, std::string* path_used) {
  std::string body;
  std::string_view payload;
  Status s = RoundTrip(
      wire::BuildPathRequest(wire::Opcode::kSnapshot, filter, path), &body,
      &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t bytes = 0;
  std::string used;
  if (!reader.GetU64(&bytes) ||
      !wire::ReadString(&reader, wire::kMaxPathBytes, &used) ||
      !reader.AtEnd()) {
    return Status::Internal("malformed SNAPSHOT response");
  }
  if (bytes_written != nullptr) *bytes_written = bytes;
  if (path_used != nullptr) *path_used = std::move(used);
  return Status::Ok();
}

Status ShbfClient::Reload(std::string_view filter, std::string_view path,
                          uint64_t* elements) {
  std::string body;
  std::string_view payload;
  Status s =
      RoundTrip(wire::BuildPathRequest(wire::Opcode::kReload, filter, path),
                &body, &payload);
  if (!s.ok()) return s;
  ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || !reader.AtEnd()) {
    return Status::Internal("malformed RELOAD response");
  }
  if (elements != nullptr) *elements = count;
  return Status::Ok();
}

}  // namespace shbf
