// The shbf_server wire protocol: byte-level framing, opcodes and status
// codes shared by the server (server.h), the client library (client.h),
// and the robustness tests — one definition, zero drift between the sides.
//
// Everything here is pure bytes (ByteWriter/ByteReader); the socket I/O
// lives in net.h. The authoritative prose specification — frame layout,
// per-opcode payloads, error semantics, versioning rules — is
// docs/serving.md; this header is its executable twin.
//
// Frame layout (both directions):
//
//   u32 body_length        little-endian; 1 .. kMaxFrameBytes
//   body_length bytes      request:  u8 opcode  + opcode payload
//                          response: u8 status  + payload (message on error)
//
// A connection starts with a HELLO exchange (magic + protocol version);
// every later request names its opcode. Fatal statuses (bad frame, frame
// too large, version mismatch) are answered and then the connection is
// closed; operation-level errors (unknown filter, unsupported capability,
// I/O failure) keep the connection serving.

#ifndef SHBF_SERVER_PROTOCOL_H_
#define SHBF_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/serde.h"

namespace shbf {
namespace wire {

/// First four body bytes of a HELLO request: "SHBQ" little-endian.
inline constexpr uint32_t kMagic = 0x51424853;

/// Protocol version this build speaks. Versioning rule: a server answers
/// HELLO with its own version; a client whose version the server does not
/// support gets kVersionMismatch and a close. Adding opcodes or response
/// fields bumps the version; layout changes to existing frames are not
/// allowed within a version.
///
/// v2: the multiset opcodes (WHICH_SETS / INDEX_ADD / INDEX_DROP /
/// MULTISET_LIST, src/multiset/). Frames of v1 are unchanged, so servers
/// accept [kMinProtocolVersion, kProtocolVersion] and echo the version
/// each connection will speak — a v1 client keeps working against a v2
/// server (rolling upgrades), while unknown versions fail loudly.
///
/// v3: the METRICS opcode (src/obs/, docs/observability.md) — an empty
/// request answered with the server's full metrics snapshot (uptime,
/// build version, host CPU, counters, gauges, histograms). Purely
/// additive: v1/v2 frames are byte-identical, so v1/v2 HELLOs are still
/// accepted.
inline constexpr uint8_t kProtocolVersion = 3;
inline constexpr uint8_t kMinProtocolVersion = 1;

/// Hard ceiling on one frame's body. A length prefix above this is answered
/// with kTooLarge and the connection is dropped without allocating.
inline constexpr size_t kMaxFrameBytes = size_t{1} << 26;  // 64 MiB

/// Keys per QUERY/ADD/REMOVE frame (batch ceiling; split larger workloads
/// across frames).
inline constexpr size_t kMaxKeysPerFrame = size_t{1} << 20;

/// Served-filter name limit (bytes).
inline constexpr size_t kMaxNameBytes = 256;

/// SNAPSHOT/RELOAD path limit (bytes).
inline constexpr size_t kMaxPathBytes = 4096;

/// Request opcodes (first body byte of a request).
enum class Opcode : uint8_t {
  kHello = 1,     ///< magic u32 + version u8 → version u8 + server string
  kQuery = 2,     ///< name + mode u8 + key list → per-key u8 / u64
  kAdd = 3,       ///< name + key list → u64 added
  kRemove = 4,    ///< name + key list → per-key u8 (gated on kRemove)
  kStats = 5,     ///< name → registry name + elements + memory + caps
  kList = 6,      ///< (empty) → u32 count + per-filter stats records
  kSnapshot = 7,  ///< name + path → u64 bytes written + path used
  kReload = 8,    ///< name + path → u64 elements

  // ---- v2: the multiset index (one SetCatalog + MultiSetIndex per
  // server, independent of the named single-set filters above) ----
  kWhichSets = 9,      ///< key list → per key: u32 count + count × u32 ids
  kIndexAdd = 10,      ///< set name + key list → u64 added (incremental)
  kIndexDrop = 11,     ///< set name → u64 remaining sets
  kMultisetList = 12,  ///< (empty) → index stats + per-set records

  // ---- v3: observability (src/obs/, docs/observability.md) ----
  kMetrics = 13,  ///< (empty) → uptime + version + cpu + registry
};

/// "HELLO" / "QUERY" / ... — static strings for metric names, the trace
/// ring and CLI output; "?" for bytes that are not an opcode.
const char* OpcodeName(Opcode opcode);

/// QUERY flavors (the paper's membership and multiplicity families).
enum class QueryMode : uint8_t {
  kMembership = 0,  ///< response: per-key u8 0/1
  kCount = 1,       ///< response: per-key u64 (multiplicity filters only)
};

/// Response status (first body byte of a response).
enum class WireStatus : uint8_t {
  kOk = 0,
  kBadFrame = 1,         ///< malformed payload / handshake — fatal
  kUnknownOpcode = 2,    ///< well-framed request, opcode not understood
  kUnknownFilter = 3,    ///< no filter served under that name
  kUnsupported = 4,      ///< capability gate (e.g. REMOVE on a bit array)
  kTooLarge = 5,         ///< frame or key list over the limits — fatal
  kVersionMismatch = 6,  ///< HELLO version unsupported — fatal
  kIoError = 7,          ///< SNAPSHOT/RELOAD file failure
  kInternal = 8,         ///< server-side bug; never expected
};

/// "OK" / "BAD_FRAME" / ... for logs and CLI output.
const char* WireStatusName(WireStatus status);

/// True for the statuses after which the server closes the connection.
bool IsFatal(WireStatus status);

// ---------------------------------------------------------------- bytes ----

/// u32 length + raw bytes (names, paths, messages).
void WriteString(ByteWriter* writer, std::string_view s);

/// Reads a WriteString record, rejecting lengths over `max_bytes` or past
/// the end of the input. Returns false on any framing error.
bool ReadString(ByteReader* reader, size_t max_bytes, std::string* out);

/// Prepends the u32 length prefix: `body` becomes one wire frame.
std::string Frame(std::string body);

// --------------------------------------------------- request builders ----
// Each returns a complete frame (length prefix included), ready to send.

std::string BuildHello();
std::string BuildQuery(std::string_view filter, QueryMode mode,
                       const std::vector<std::string>& keys);
/// ADD / REMOVE / INDEX_ADD share the name + key-list payload shape.
std::string BuildKeysRequest(Opcode opcode, std::string_view filter,
                             const std::vector<std::string>& keys);
/// STATS / INDEX_DROP (and any future single-name request).
std::string BuildNameRequest(Opcode opcode, std::string_view filter);
/// SNAPSHOT / RELOAD: name + path (empty path = server-remembered path).
std::string BuildPathRequest(Opcode opcode, std::string_view filter,
                             std::string_view path);
/// LIST / MULTISET_LIST (and any future empty-payload request).
std::string BuildEmptyRequest(Opcode opcode);
std::string BuildList();
/// WHICH_SETS: a bare key list (the multiset index is server-global).
std::string BuildWhichSets(const std::vector<std::string>& keys);
/// METRICS (v3): empty payload, answered with the metrics snapshot.
std::string BuildMetrics();

// -------------------------------------------------- response builders ----

/// Error frame: status byte + message string.
std::string BuildError(WireStatus status, std::string_view message);

/// OK frame: kOk byte + `payload`.
std::string BuildOk(std::string_view payload);

// --------------------------------------------------- response parsing ----

/// Splits a response body into status / payload; on a non-OK status the
/// payload is parsed as the error message. Returns false if `body` is too
/// short to carry a status byte.
bool ParseResponse(std::string_view body, WireStatus* status,
                   std::string_view* payload, std::string* error_message);

}  // namespace wire
}  // namespace shbf

#endif  // SHBF_SERVER_PROTOCOL_H_
