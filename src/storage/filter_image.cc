#include "storage/filter_image.h"

#include <string_view>

#include "core/check.h"
#include "core/file_io.h"
#include "core/serde.h"
#include "hash/murmur3.h"

namespace shbf {
namespace storage {

namespace {

/// Fixed seed for every image checksum; distinct from any filter seed so a
/// payload never accidentally checksums itself.
constexpr uint64_t kChecksumSeed = 0x51bf51bf51bf51bfull;

uint64_t RoundUpPage(uint64_t bytes) {
  return (bytes + kImagePageBytes - 1) & ~uint64_t{kImagePageBytes - 1};
}

/// Every region's stride leaves at least kImageGuardBytes readable past the
/// payload — when the payload ends exactly on a page boundary the stride
/// grows by a whole page rather than let LoadWindow() touch unmapped memory.
uint64_t RegionStride(uint64_t payload_bytes) {
  return RoundUpPage(payload_bytes + kImageGuardBytes);
}

}  // namespace

uint64_t ImageChecksum(const void* data, size_t len) {
  const auto [lo, hi] = Murmur3_128(data, len, kChecksumSeed);
  return lo ^ hi;
}

std::string EncodeImageHeader(const ImageHeader& header) {
  SHBF_CHECK(!header.filter_name.empty() &&
             header.filter_name.size() <= kImageMaxNameBytes);
  SHBF_CHECK(!header.regions.empty() &&
             header.regions.size() <= kImageMaxRegions);
  ByteWriter writer;
  writer.PutU32(kImageMagic);
  writer.PutU32(kImageVersion);
  writer.PutU64(header.generation);
  writer.PutU32(static_cast<uint32_t>(header.filter_name.size()));
  writer.PutBytes(header.filter_name.data(), header.filter_name.size());
  const ImageGeometry& g = header.geometry;
  writer.PutU64(g.num_bits);
  writer.PutU32(g.num_hashes);
  writer.PutU32(g.block_bits);
  writer.PutU32(g.sub_block_bits);
  writer.PutU32(g.max_offset_span);
  writer.PutU8(g.hash_algorithm);
  writer.PutU64(g.seed);
  writer.PutU64(g.num_elements);
  writer.PutU64(g.array_total_bits);
  writer.PutU32(static_cast<uint32_t>(header.regions.size()));
  for (const RegionDesc& region : header.regions) {
    writer.PutU64(region.offset);
    writer.PutU64(region.bytes);
    writer.PutU64(region.checksum);
  }
  std::string page = writer.Take();
  SHBF_CHECK(page.size() + 8 <= kImagePageBytes);
  const uint64_t checksum = ImageChecksum(page.data(), page.size());
  ByteWriter tail;
  tail.PutU64(checksum);
  page += tail.Take();
  page.resize(kImagePageBytes, '\0');
  return page;
}

Status DecodeImageHeader(const uint8_t* data, size_t size, ImageHeader* out) {
  if (size < kImagePageBytes) {
    return Status::InvalidArgument(
        "truncated image: " + std::to_string(size) +
        " bytes, smaller than the header page");
  }
  ByteReader reader(
      std::string_view(reinterpret_cast<const char*>(data), kImagePageBytes));
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!reader.GetU32(&magic) || magic != kImageMagic) {
    return Status::InvalidArgument("field magic: not a filter image");
  }
  if (!reader.GetU32(&version) || version != kImageVersion) {
    return Status::InvalidArgument(
        "field version: unsupported image version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kImageVersion) + ")");
  }
  ImageHeader header;
  uint32_t name_len = 0;
  if (!reader.GetU64(&header.generation) || !reader.GetU32(&name_len)) {
    return Status::InvalidArgument("field generation/name: truncated header");
  }
  if (name_len == 0 || name_len > kImageMaxNameBytes) {
    return Status::InvalidArgument("field name: length " +
                                   std::to_string(name_len) +
                                   " outside [1, " +
                                   std::to_string(kImageMaxNameBytes) + "]");
  }
  header.filter_name.resize(name_len);
  if (!reader.GetBytes(header.filter_name.data(), name_len)) {
    return Status::InvalidArgument("field name: truncated header");
  }
  ImageGeometry& g = header.geometry;
  if (!reader.GetU64(&g.num_bits) || !reader.GetU32(&g.num_hashes) ||
      !reader.GetU32(&g.block_bits) || !reader.GetU32(&g.sub_block_bits) ||
      !reader.GetU32(&g.max_offset_span) || !reader.GetU8(&g.hash_algorithm) ||
      !reader.GetU64(&g.seed) || !reader.GetU64(&g.num_elements) ||
      !reader.GetU64(&g.array_total_bits)) {
    return Status::InvalidArgument("field geometry: truncated header");
  }
  uint32_t region_count = 0;
  if (!reader.GetU32(&region_count) || region_count == 0 ||
      region_count > kImageMaxRegions) {
    return Status::InvalidArgument(
        "field region_count: " + std::to_string(region_count) +
        " outside [1, " + std::to_string(kImageMaxRegions) + "]");
  }
  header.regions.resize(region_count);
  for (RegionDesc& region : header.regions) {
    if (!reader.GetU64(&region.offset) || !reader.GetU64(&region.bytes) ||
        !reader.GetU64(&region.checksum)) {
      return Status::InvalidArgument("field regions: truncated header");
    }
  }
  // The checksum sits immediately after the parsed fields; everything
  // consumed so far must hash to it. All length fields above were
  // range-checked before use, so a corrupted header can steer *which*
  // bytes get compared but never an out-of-bounds read.
  const size_t checked_bytes = kImagePageBytes - reader.remaining();
  uint64_t stored_checksum = 0;
  if (!reader.GetU64(&stored_checksum)) {
    return Status::InvalidArgument("field header_checksum: truncated header");
  }
  const uint64_t computed = ImageChecksum(data, checked_bytes);
  if (stored_checksum != computed) {
    return Status::InvalidArgument(
        "field header_checksum: mismatch (corrupt or torn header)");
  }
  // Region table vs the real file size: every span, guard included, must be
  // mapped, page-aligned, and past the header.
  uint64_t previous_end = kImagePageBytes;
  for (size_t i = 0; i < header.regions.size(); ++i) {
    const RegionDesc& region = header.regions[i];
    const std::string field = "field region[" + std::to_string(i) + "]";
    if (region.offset % kImagePageBytes != 0 ||
        region.offset < kImagePageBytes) {
      return Status::InvalidArgument(field + ".offset: " +
                                     std::to_string(region.offset) +
                                     " is not a page-aligned payload offset");
    }
    if (region.bytes == 0 || region.offset > size ||
        region.bytes > size - region.offset ||
        kImageGuardBytes > size - region.offset - region.bytes) {
      return Status::InvalidArgument(
          field + ".bytes: span [" + std::to_string(region.offset) + ", +" +
          std::to_string(region.bytes) +
          " + guard) falls outside the mapped file (" + std::to_string(size) +
          " bytes)");
    }
    if (region.offset < previous_end) {
      return Status::InvalidArgument(field +
                                     ".offset: overlaps the previous region");
    }
    previous_end = region.offset + region.bytes;
  }
  // The writer pads the last region's stride to a whole page and commits
  // via atomic rename, so a committed image has exactly the size its
  // region table implies. Anything shorter lost tail bytes, anything
  // longer gained them — reject both rather than guess.
  const uint64_t expected_size =
      header.regions.empty()
          ? uint64_t{kImagePageBytes}
          : previous_end - header.regions.back().bytes +
                RegionStride(header.regions.back().bytes);
  if (size != expected_size) {
    return Status::InvalidArgument(
        "field file_size: " + std::to_string(size) + " bytes on disk, " +
        std::to_string(expected_size) +
        " implied by the region table (torn or padded image)");
  }
  *out = std::move(header);
  return Status::Ok();
}

Status VerifyRegionChecksum(const ImageHeader& header, size_t index,
                            const uint8_t* file_data) {
  const RegionDesc& region = header.regions[index];
  const uint64_t computed =
      ImageChecksum(file_data + region.offset, region.bytes);
  if (computed != region.checksum) {
    return Status::InvalidArgument(
        "field region[" + std::to_string(index) +
        "].checksum: payload checksum mismatch (corrupt image)");
  }
  return Status::Ok();
}

Status WriteImageFile(const std::string& path, ImageHeader* header,
                      const std::vector<RegionPayload>& payloads) {
  if (payloads.empty() || payloads.size() > kImageMaxRegions) {
    return Status::InvalidArgument("image needs 1.." +
                                   std::to_string(kImageMaxRegions) +
                                   " regions");
  }
  header->regions.resize(payloads.size());
  uint64_t offset = kImagePageBytes;  // regions follow the header page
  for (size_t i = 0; i < payloads.size(); ++i) {
    header->regions[i].offset = offset;
    offset += RegionStride(payloads[i].bytes);
    header->regions[i].bytes = payloads[i].bytes;
    header->regions[i].checksum =
        ImageChecksum(payloads[i].data, payloads[i].bytes);
  }
  const std::string page = EncodeImageHeader(*header);
  // Each stride's zero tail (guard bytes and page fill) is at most a page
  // plus the guard, so one static run of zeros pads every region.
  static constexpr char kZeros[kImagePageBytes + kImageGuardBytes] = {};
  std::vector<std::string_view> spans = {page};
  for (const RegionPayload& payload : payloads) {
    spans.emplace_back(reinterpret_cast<const char*>(payload.data),
                       payload.bytes);
    spans.emplace_back(kZeros, RegionStride(payload.bytes) - payload.bytes);
  }
  return WriteStringToFile(path, spans);
}

}  // namespace storage
}  // namespace shbf
