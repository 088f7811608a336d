#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <utility>

#include "analysis/membership_theory.h"
#include "api/filter_registry.h"
#include "core/file_io.h"
#include "core/serde.h"
#include "engine/batch_query_engine.h"
#include "server/net.h"
#include "server/protocol.h"

namespace perfbench {

using shbf::Status;

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the shapes here
// follow it: point_cached fits L2 so per-frame server cost dominates,
// bulk_large is ~6x L2 with frames above the sharded fan-out threshold so
// per-key probe cost dominates, mixed_rw puts writers beside readers on
// one filter, and which_sets is the only one that runs MultiSetIndex.
const WorkloadSpec kWorkloads[] = {
    {.name = "point_cached",
     .filter = "split_block_shbf_m",
     .members = 100000,
     .bits_per_key = 12,
     .num_hashes = 8,
     .shards = 1,
     .storage = Storage::kMapped,
     .frame_keys = 32,
     .window = 4,
     .member_frac = 0.5,
     .read_frames = 4096},
    {.name = "bulk_large",
     .filter = "shbf_m",
     .members = 8000000,
     .bits_per_key = 12,
     .num_hashes = 8,
     .shards = 4,
     .storage = Storage::kHeap,
     .frame_keys = 4096,
     .window = 2,
     .member_frac = 0.5,
     .read_frames = 256},
    {.name = "mixed_rw",
     .filter = "shbf_m",
     .members = 1000000,
     .bits_per_key = 12,
     .num_hashes = 8,
     .shards = 4,
     .storage = Storage::kHeap,
     .frame_keys = 512,
     .window = 4,
     .member_frac = 0.5,
     .read_frames = 896,
     .add_every = 8},
    {.name = "which_sets",
     .filter = "shbf_m",
     .members = 2000,
     .bits_per_key = 64,
     .num_hashes = 4,
     .storage = Storage::kCatalog,
     .frame_keys = 1024,
     .window = 2,
     .member_frac = 0.1,
     .read_frames = 128,
     .sets = 128,
     .cuckoo_every = 8,
     .branching = 8},
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string Key(char domain, uint64_t seed, uint64_t index) {
  static constexpr char kHex[] = "0123456789abcdef";
  const uint64_t h =
      Mix(Mix(seed ^ (static_cast<uint64_t>(domain) << 56)) + index);
  std::string key(15, domain);
  for (int i = 0; i < 14; ++i) key[1 + i] = kHex[(h >> (4 * i)) & 15];
  return key;
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

const char* SetFilterName(const WorkloadSpec& spec, size_t set) {
  return spec.cuckoo_every != 0 && (set + 1) % spec.cuckoo_every == 0
             ? "cuckoo"
             : spec.filter;
}

std::string FilePath(const std::string& dir, const WorkloadSpec& spec,
                     const char* tag) {
  return dir + "/" + spec.name + "-" + tag + ".bin";
}

/// Builds the structure from `key_seed`'s keys and writes it to `path` in
/// the workload's storage format; `*save_s` gets the write's wall time.
Status BuildAndSave(const WorkloadSpec& spec, uint64_t key_seed,
                    const std::string& path, double* save_s) {
  const auto& registry = shbf::FilterRegistry::Global();
  const shbf::FilterSpec filter_spec = MakeFilterSpec(spec);
  if (spec.storage == Storage::kCatalog) {
    shbf::SetCatalog catalog;
    for (size_t s = 0; s < spec.sets; ++s) {
      std::unique_ptr<shbf::MembershipFilter> filter;
      Status st = registry.Create(SetFilterName(spec, s), filter_spec, &filter);
      if (!st.ok()) return st;
      for (size_t i = 0; i < spec.members; ++i) {
        filter->Add(SetKey(key_seed, s, i));
      }
      st = catalog.AddSet("set-" + std::to_string(s), std::move(filter));
      if (!st.ok()) return st;
    }
    const auto start = std::chrono::steady_clock::now();
    Status st = shbf::WriteStringToFile(path, catalog.Serialize());
    *save_s = Seconds(start);
    return st;
  }
  std::unique_ptr<shbf::MembershipFilter> filter;
  Status st = registry.Create(spec.filter, filter_spec, &filter);
  if (!st.ok()) return st;
  for (size_t i = 0; i < spec.members; ++i) filter->Add(MemberKey(key_seed, i));
  const auto start = std::chrono::steady_clock::now();
  if (spec.storage == Storage::kMapped) {
    st = registry.SaveMapped(*filter, path);
  } else {
    st = shbf::WriteStringToFile(path, shbf::FilterRegistry::Serialize(*filter));
  }
  *save_s = Seconds(start);
  return st;
}

shbf::MultiSetIndexOptions IndexOptions(const WorkloadSpec& spec) {
  shbf::MultiSetIndexOptions options;
  options.branching = spec.branching;
  return options;
}

Status Connect(uint16_t port, int* fd) {
  Status st;
  *fd = shbf::net::ConnectTcp("127.0.0.1", port, &st);
  if (*fd < 0) return st;
  const std::string hello = shbf::wire::BuildHello();
  std::string body;
  if (!shbf::net::SendAll(*fd, hello.data(), hello.size()) ||
      shbf::net::ReadFrame(*fd, shbf::wire::kMaxFrameBytes, &body) !=
          shbf::net::FrameRead::kOk ||
      body.empty() || body[0] != 0) {
    return Status::Internal("HELLO failed");
  }
  return Status::Ok();
}

std::string QueryBody(const std::vector<uint8_t>& answers) {
  shbf::ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(shbf::wire::QueryMode::kMembership));
  writer.PutU64(answers.size());
  for (uint8_t a : answers) writer.PutU8(a != 0 ? 1 : 0);
  return shbf::wire::BuildOk(writer.Take()).substr(4);
}

std::string WhichSetsBody(const std::vector<shbf::SetIdBitmap>& answers) {
  shbf::ByteWriter writer;
  writer.PutU64(answers.size());
  for (const auto& bitmap : answers) {
    const std::vector<uint32_t> ids = bitmap.ToIds();
    writer.PutU32(static_cast<uint32_t>(ids.size()));
    for (uint32_t id : ids) writer.PutU32(id);
  }
  return shbf::wire::BuildOk(writer.Take()).substr(4);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

WorkloadSpec TinyScale(const WorkloadSpec& spec) {
  WorkloadSpec tiny = spec;
  if (spec.storage == Storage::kCatalog) {
    tiny.sets = 24;
    tiny.members = 500;
  } else {
    tiny.members = std::min<size_t>(spec.members, 20000);
  }
  tiny.frame_keys = std::min<size_t>(spec.frame_keys, 256);
  tiny.read_frames = std::min<size_t>(spec.read_frames, 56);
  return tiny;
}

shbf::FilterSpec MakeFilterSpec(const WorkloadSpec& spec) {
  shbf::FilterSpec filter_spec = shbf::FilterSpec::ForKeys(
      spec.members, spec.bits_per_key, spec.num_hashes);
  filter_spec.shards = spec.shards;
  return filter_spec;
}

std::string MemberKey(uint64_t seed, uint64_t index) {
  return Key('m', seed, index);
}
std::string AbsentKey(uint64_t seed, uint64_t index) {
  return Key('a', seed, index);
}
std::string WriteKey(uint64_t seed, uint64_t index) {
  return Key('w', seed, index);
}
std::string SetKey(uint64_t seed, size_t set, size_t index) {
  return Key('s', seed, (static_cast<uint64_t>(set) << 32) | index);
}

Served::~Served() {
  for (int fd : fds) shbf::net::CloseFd(fd);
  if (server != nullptr) server->Stop();
}

Status SetUp(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             Served* out, SetupTimes* times) {
  const auto start = std::chrono::steady_clock::now();
  out->path = FilePath(dir, spec, "served");
  Status st = BuildAndSave(spec, seed, out->path, &times->save);
  if (!st.ok()) return st;
  out->server = std::make_unique<shbf::ShbfServer>();
  const auto load_start = std::chrono::steady_clock::now();
  switch (spec.storage) {
    case Storage::kMapped:
      st = out->server->LoadFilter(std::string(kServeName),
                                    "mmap:" + out->path);
      break;
    case Storage::kHeap:
      st = out->server->LoadFilter(std::string(kServeName), out->path);
      break;
    case Storage::kCatalog:
      st = out->server->LoadCatalog(out->path, IndexOptions(spec));
      break;
  }
  times->load = Seconds(load_start);
  if (!st.ok()) return st;
  st = out->server->Start();
  if (!st.ok()) return st;
  for (size_t c = 0; c < kConnections; ++c) {
    int fd = -1;
    st = Connect(out->server->port(), &fd);
    if (fd >= 0) out->fds.push_back(fd);
    if (!st.ok()) return st;
  }
  times->total = Seconds(start);
  return Status::Ok();
}

Status MakeTwin(const WorkloadSpec& spec, uint64_t served_seed,
                uint64_t key_seed, const std::string& served_path,
                const std::string& dir, Twin* twin) {
  std::string path = served_path;
  if (key_seed != served_seed) {
    path = FilePath(dir, spec, "twin");
    double unused = 0;
    Status st = BuildAndSave(spec, key_seed, path, &unused);
    if (!st.ok()) return st;
  }
  const auto& registry = shbf::FilterRegistry::Global();
  if (spec.storage == Storage::kMapped) {
    return registry.OpenMapped(path, &twin->filter);
  }
  std::string blob;
  Status st = shbf::ReadFileToString(path, &blob);
  if (!st.ok()) return st;
  if (spec.storage == Storage::kHeap) {
    st = registry.Deserialize(blob, &twin->filter);
    if (st.ok()) twin->filter->PrepareForConstReads();
    return st;
  }
  st = shbf::SetCatalog::Deserialize(blob, registry, &twin->catalog);
  if (!st.ok()) return st;
  const auto start = std::chrono::steady_clock::now();
  st = shbf::MultiSetIndex::Build(&twin->catalog, IndexOptions(spec),
                                  &twin->index);
  twin->index_build_s = Seconds(start);
  if (st.ok()) twin->index->PrepareForConstReads();
  return st;
}

Status BuildPool(const WorkloadSpec& spec, uint64_t seed, const Twin& twin,
                 shbf::MembershipFilter* final_twin, Pool* pool) {
  std::mt19937_64 rng(Mix(seed ^ 0x9001));
  uint64_t next_absent = 0;
  pool->reads.resize(spec.read_frames);
  for (size_t f = 0; f < spec.read_frames; ++f) {
    Frame& frame = pool->reads[f];
    frame.pool_index = f;
    frame.keys.resize(spec.frame_keys);
    frame.truth.resize(spec.frame_keys);
    for (size_t i = 0; i < spec.frame_keys; ++i) {
      const bool member =
          std::uniform_real_distribution<double>(0, 1)(rng) < spec.member_frac;
      if (!member) {
        frame.keys[i] = AbsentKey(seed, next_absent++);
        frame.truth[i] = -1;
      } else if (spec.storage == Storage::kCatalog) {
        const size_t set = rng() % spec.sets;
        frame.keys[i] = SetKey(seed, set, rng() % spec.members);
        frame.truth[i] = static_cast<int32_t>(set);
      } else {
        frame.keys[i] = MemberKey(seed, rng() % spec.members);
        frame.truth[i] = 0;
      }
    }
  }

  // Expected answers come from the twin.
  const shbf::BatchQueryEngine engine;
  for (Frame& frame : pool->reads) {
    if (spec.storage == Storage::kCatalog) {
      frame.request = shbf::wire::BuildWhichSets(frame.keys);
      std::vector<shbf::SetIdBitmap> answers;
      twin.index->WhichSetsBatch(frame.keys, &answers);
      frame.expected = WhichSetsBody(answers);
      for (size_t i = 0; i < frame.keys.size(); ++i) {
        if (frame.truth[i] >= 0) {
          frame.members_ok &= answers[i].Test(frame.truth[i]);
        }
      }
      continue;
    }
    frame.request = shbf::wire::BuildQuery(
        kServeName, shbf::wire::QueryMode::kMembership, frame.keys);
    std::vector<uint8_t> answers;
    engine.ContainsBatch(*twin.filter, frame.keys, &answers);
    for (size_t i = 0; i < frame.keys.size(); ++i) {
      if (frame.truth[i] >= 0) frame.members_ok &= answers[i] != 0;
    }
    if (spec.add_every == 0) {
      frame.expected = QueryBody(answers);
    } else {
      frame.lo = std::move(answers);
    }
  }

  const size_t per_connection = spec.read_frames / kConnections;
  size_t adds_per_connection = 0;
  if (spec.add_every != 0) {
    adds_per_connection = per_connection / (spec.add_every - 1);
    pool->adds.resize(adds_per_connection * kConnections);
    uint64_t next_write = 0;
    shbf::ByteWriter ack;
    ack.PutU64(spec.frame_keys);
    const std::string ack_body = shbf::wire::BuildOk(ack.Take()).substr(4);
    for (size_t f = 0; f < pool->adds.size(); ++f) {
      Frame& frame = pool->adds[f];
      frame.pool_index = f;
      frame.is_add = true;
      frame.keys.resize(spec.frame_keys);
      for (auto& key : frame.keys) key = WriteKey(seed, next_write++);
      frame.request = shbf::wire::BuildKeysRequest(shbf::wire::Opcode::kAdd,
                                                   kServeName, frame.keys);
      frame.expected = ack_body;
      for (const auto& key : frame.keys) final_twin->Add(key);
    }
    final_twin->PrepareForConstReads();
    for (Frame& frame : pool->reads) {
      engine.ContainsBatch(*final_twin, frame.keys, &frame.hi);
    }
  }

  // Connection c sends reads c, c + 4, ... and, for mixed_rw, an ADD in
  // every add_every-th slot.
  pool->schedule.assign(kConnections, {});
  for (size_t c = 0; c < kConnections; ++c) {
    size_t next_read = c;
    size_t next_add = c;
    const size_t slots = per_connection + adds_per_connection;
    for (size_t slot = 0; slot < slots; ++slot) {
      const bool add = spec.add_every != 0 &&
                       slot % spec.add_every == spec.add_every - 1 &&
                       next_add < pool->adds.size();
      const Frame* frame =
          add ? &pool->adds[next_add] : &pool->reads[next_read];
      (add ? next_add : next_read) += kConnections;
      pool->schedule[c].push_back(frame);
    }
  }
  return Status::Ok();
}

bool ParseQueryAnswers(std::string_view body, size_t keys,
                       std::vector<uint8_t>* answers) {
  shbf::wire::WireStatus status;
  std::string_view payload;
  if (!shbf::wire::ParseResponse(body, &status, &payload, nullptr) ||
      status != shbf::wire::WireStatus::kOk) {
    return false;
  }
  shbf::ByteReader reader(payload);
  uint8_t mode = 0;
  uint64_t count = 0;
  if (!reader.GetU8(&mode) || !reader.GetU64(&count) || count != keys ||
      reader.remaining() != count) {
    return false;
  }
  answers->resize(count);
  return reader.GetBytes(answers->data(), count);
}

bool CheckResponse(const Frame& frame, std::string_view body,
                   std::string* why) {
  if (frame.lo.empty()) {
    if (body != frame.expected) {
      *why = std::string(frame.is_add ? "ADD" : "read") + " frame " +
             std::to_string(frame.pool_index) +
             ": response differs from the oracle";
      return false;
    }
    if (!frame.members_ok) {
      *why = "read frame " + std::to_string(frame.pool_index) +
             ": a member key is not reported (false negative)";
      return false;
    }
    return true;
  }
  std::vector<uint8_t> answers;
  if (!ParseQueryAnswers(body, frame.keys.size(), &answers)) {
    *why = "malformed QUERY response";
    return false;
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    const bool member_miss = frame.truth[i] >= 0 && answers[i] == 0;
    if (member_miss || answers[i] < frame.lo[i] || answers[i] > frame.hi[i]) {
      *why = "read frame " + std::to_string(frame.pool_index) + " key " +
             std::to_string(i) + ": answer " + std::to_string(answers[i]) +
             " outside the oracle's [" + std::to_string(frame.lo[i]) + ", " +
             std::to_string(frame.hi[i]) + "]";
      return false;
    }
  }
  return true;
}

double TheoryFpr(const WorkloadSpec& spec, const Twin& twin,
                 uint64_t stored_keys) {
  const shbf::FilterSpec filter_spec = MakeFilterSpec(spec);
  // shbf_m rounds k up to even; the paper's default offset span w̄ = 57.
  const double k = spec.num_hashes + spec.num_hashes % 2;
  if (spec.storage != Storage::kCatalog) {
    return shbf::theory::ShbfMFpr(filter_spec.num_cells, stored_keys, k, 57);
  }
  double sum = 0;
  for (const auto* entry : twin.catalog.Entries()) {
    if (entry->filter->name() == std::string_view("cuckoo")) {
      // Fan et al.: a lookup compares against 2b fingerprints of f bits.
      sum += 2.0 * filter_spec.bucket_size /
             std::ldexp(1.0, static_cast<int>(filter_spec.fingerprint_bits));
    } else {
      sum += shbf::theory::ShbfMFpr(filter_spec.num_cells,
                                    entry->filter->num_elements(), k, 57);
    }
  }
  return twin.catalog.empty() ? 0 : sum / twin.catalog.size();
}

}  // namespace perfbench
