// Library version string, printed by `shbf_cli --version` and
// `shbf_server --version` and returned in the wire HELLO response so a
// remote client can log exactly which build it is talking to; plus the
// host CPU stamp that bench reports and METRICS carry beside it.

#ifndef SHBF_CORE_VERSION_H_
#define SHBF_CORE_VERSION_H_

namespace shbf {

// 0.6.0: protocol v3 (METRICS opcode), the src/obs/ metrics subsystem,
// host-stamped bench reports.
inline constexpr const char kShbfVersion[] = "0.6.0";

/// Host CPU stamp, e.g. "x86-64 avx512" or "aarch64 neon": the
/// architecture plus the widest vector extension the CPU reports. The
/// library runs no vector code; the stamp only tells measuring hosts apart,
/// so numbers from different machines are never compared as a trend.
inline const char* HostCpu() {
#if defined(__aarch64__)
  return "aarch64 neon";  // Advanced SIMD is mandatory on AArch64
#elif defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return "x86-64 avx512";
  if (__builtin_cpu_supports("avx2")) return "x86-64 avx2";
  return "x86-64 scalar";
#else
  return "unknown scalar";
#endif
}

}  // namespace shbf

#endif  // SHBF_CORE_VERSION_H_
