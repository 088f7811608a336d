// Filter image — the versioned flat file format behind SaveMapped/OpenMapped.
//
// Layout (all integers little-endian; full diagram in docs/persistence.md):
//
//   page 0 (4096 B)   header: magic "SHBI", format version, generation,
//                     filter name, geometry record, region table, and a
//                     64-bit checksum over every preceding header byte.
//   page 1..          one region per array, each starting on its own page
//                     boundary. A bit-array region stores exactly the
//                     owning BitArray's PayloadBytes(); the pages after it
//                     are zero up to the next boundary, which always leaves
//                     >= 8 readable guard bytes past the payload — so
//                     LoadWindow() at the final bit position stays inside
//                     the mapping (never SIGBUS on a page-aligned tail).
//
// The header names every region by (offset, length, checksum); offsets are
// page-aligned, which also makes them 64-byte aligned as BitArray views
// require. The header checksum is always verified on open; region payload
// checksums are verified when OpenOptions.verify_payload asks (the fast
// default open touches only page 0 — that is the whole point of the
// format). Decode failures are Status, never a crash: every field is
// bounds-checked against the mapped size before anything dereferences it.
//
// Crash consistency: WriteImageFile goes through the one durable writer,
// WriteStringToFile (core/file_io.h), so a reader sees the complete old or
// new image, never a torn mix; tests/storage_crash_test.cc SIGKILLs writers
// at randomized points to enforce it.

#ifndef SHBF_STORAGE_FILTER_IMAGE_H_
#define SHBF_STORAGE_FILTER_IMAGE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace shbf {
namespace storage {

/// "SHBI" — image, as distinct from the byte-envelope magic "SHBR".
inline constexpr uint32_t kImageMagic = 0x49424853u;

/// Bumped when the header layout changes shape.
inline constexpr uint32_t kImageVersion = 1;

/// Header size and region alignment; one x86/arm base page.
inline constexpr size_t kImagePageBytes = 4096;

/// Readable bytes guaranteed past every region's payload (BitArray's
/// LoadWindow guard). Region strides are rounded so this always holds.
inline constexpr size_t kImageGuardBytes = 8;

/// Longest filter name an image can carry.
inline constexpr size_t kImageMaxNameBytes = 120;

/// Most regions a header can describe (one per array; every current filter
/// uses one, counting filters would use two).
inline constexpr size_t kImageMaxRegions = 4;

/// One mapped array: `offset` is page-aligned, `bytes` is the exact payload
/// size (guard/padding excluded), `checksum` is ImageChecksum(payload).
struct RegionDesc {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// The filter-specific geometry record: a fixed superset of the four
/// mmap-able filters' Params. Openers validate every field against what the
/// named filter would derive before any array view is built.
struct ImageGeometry {
  uint64_t num_bits = 0;         ///< logical m (block-aligned where applicable)
  uint32_t num_hashes = 0;       ///< k
  uint32_t block_bits = 0;       ///< split-block variants; 0 otherwise
  uint32_t sub_block_bits = 0;   ///< split-block variants; 0 otherwise
  uint32_t max_offset_span = 0;  ///< shifting variants; 0 otherwise
  uint8_t hash_algorithm = 0;    ///< HashAlgorithm enum value
  uint64_t seed = 0;             ///< the hash family's master seed
  uint64_t num_elements = 0;     ///< adds observed by the saved filter
  uint64_t array_total_bits = 0; ///< num_bits + slack: what region 0 spans

  auto operator<=>(const ImageGeometry&) const = default;
};

/// Everything page 0 carries (minus the checksum, which EncodeImageHeader
/// computes and DecodeImageHeader verifies).
struct ImageHeader {
  uint64_t generation = 0;   ///< writer-chosen; crash harness' old/new marker
  std::string filter_name;   ///< registry name ("bloom", "shbf_m", ...)
  ImageGeometry geometry;
  std::vector<RegionDesc> regions;
};

/// One region's mapped bytes, handed to a filter's mapped opener.
struct MappedRegionView {
  const uint8_t* data = nullptr;
  size_t bytes = 0;
};

/// One region's source bytes, handed back by a filter's mapped saver
/// (borrowed from the live filter; valid for the duration of the save).
struct RegionPayload {
  const uint8_t* data = nullptr;
  size_t bytes = 0;
};

/// The image checksum (a 64-bit fold of Murmur3_128 under a fixed seed);
/// used for both the header and each region payload.
uint64_t ImageChecksum(const void* data, size_t len);

/// Renders the full header page (kImagePageBytes, zero-padded, trailing
/// checksum). `header.regions` must already be laid out.
std::string EncodeImageHeader(const ImageHeader& header);

/// Parses and validates a header page against the mapped `size`: magic,
/// version, name/geometry bounds, region table (page-aligned offsets,
/// in-bounds spans including the guard), and the header checksum. Failure
/// messages name the offending field; callers prefix the file path.
Status DecodeImageHeader(const uint8_t* data, size_t size, ImageHeader* out);

/// Verifies region `index`'s payload checksum over the mapped bytes.
Status VerifyRegionChecksum(const ImageHeader& header, size_t index,
                            const uint8_t* file_data);

/// Writes a complete image (header built from `header` + `payloads`, one
/// region per payload) through WriteStringToFile: the header page, each
/// payload and its zero pad go to the writer as spans, never copied into
/// one buffer. Fills `header->regions`. ENOSPC-class failures surface as
/// kResourceExhausted with the path in the message; the target is never
/// left torn.
Status WriteImageFile(const std::string& path, ImageHeader* header,
                      const std::vector<RegionPayload>& payloads);

}  // namespace storage
}  // namespace shbf

#endif  // SHBF_STORAGE_FILTER_IMAGE_H_
