#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string_view>

#include "api/filter_registry.h"
#include "bench_util/timer.h"
#include "core/serde.h"
#include "engine/batch_query_engine.h"
#include "engine/sharded_filter.h"
#include "hash/hash_family.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

namespace {

int64_t Ns(Tracer::Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// The answer body the server builds for a decoded request, through the
/// same wire helpers it uses; returns the parsed payload size.
size_t EncodeAndParseAnswer(const std::string& payload) {
  const std::string frame = shbf::wire::BuildOk(payload);
  shbf::wire::WireStatus status;
  std::string_view parsed;
  shbf::wire::ParseResponse(std::string_view(frame).substr(4), &status,
                            &parsed, nullptr);
  return parsed.size() + 1;  // + status byte
}

/// One pass over the pool's read frames; see ReplayLayers.
void ReplayPass(const WorkloadSpec& spec, const Twin& twin, const Pool& pool,
                Tracer* tracer, Replay* replay) {
  const bool catalog = spec.storage == Storage::kCatalog;
  // The server resolves QUERY frames through an engine of this group size.
  const shbf::BatchQueryEngine engine(
      shbf::BatchOptions{.batch_size = shbf::ServerOptions{}.batch_size});
  const shbf::MembershipFilter& filter =
      catalog ? *twin.catalog.Entries().front()->filter : *twin.filter;
  const auto* sharded =
      dynamic_cast<const shbf::ShardedMembershipFilter*>(twin.filter.get());
  const shbf::FilterSpec filter_spec = MakeFilterSpec(spec);
  const shbf::HashFamily family(filter_spec.hash_algorithm,
                                filter_spec.num_hashes, filter_spec.seed);
  std::vector<std::string> decoded;
  std::vector<uint8_t> answers;
  std::vector<shbf::SetIdBitmap> bitmaps;
  uint64_t sink = 0;
  for (const Frame& frame : pool.reads) {
    const uint64_t id = frame.pool_index;
    const uint64_t n = frame.keys.size();
    const int32_t root = tracer->Begin("frame", id, -1, n);

    int32_t span = tracer->Begin("protocol.encode", id, root, n);
    const std::string request =
        catalog ? shbf::wire::BuildWhichSets(frame.keys)
                : shbf::wire::BuildQuery(kServeName,
                                         shbf::wire::QueryMode::kMembership,
                                         frame.keys);
    tracer->End(span);

    span = tracer->Begin("protocol.decode", id, root, n);
    shbf::ByteReader reader(std::string_view(request).substr(4));
    uint8_t byte = 0;
    std::string name;
    reader.GetU8(&byte);
    if (!catalog) {
      shbf::wire::ReadString(&reader, shbf::wire::kMaxNameBytes, &name);
      reader.GetU8(&byte);
    }
    shbf::serde::ReadKeyList(&reader, &decoded);
    tracer->End(span);

    shbf::ByteWriter writer;
    if (catalog) {
      span = tracer->Begin("multiset", id, root, n);
      twin.index->WhichSetsBatch(decoded, &bitmaps);
      tracer->End(span);
      span = tracer->Begin("protocol.answer", id, root, n);
      writer.PutU64(bitmaps.size());
      for (const auto& bitmap : bitmaps) {
        const std::vector<uint32_t> ids = bitmap.ToIds();
        writer.PutU32(static_cast<uint32_t>(ids.size()));
        for (uint32_t set : ids) writer.PutU32(set);
      }
    } else {
      span = tracer->Begin("engine", id, root, n);
      engine.ContainsBatch(filter, decoded, &answers);
      tracer->End(span);
      span = tracer->Begin("protocol.answer", id, root, n);
      writer.PutU8(static_cast<uint8_t>(shbf::wire::QueryMode::kMembership));
      writer.PutU64(answers.size());
      for (uint8_t a : answers) writer.PutU8(a != 0 ? 1 : 0);
    }
    replay->answer_bytes += EncodeAndParseAnswer(writer.Take());
    tracer->End(span);
    tracer->End(root);

    // The layers below the engine, timed on the same keys as roots of
    // their own (each redoes work the engine span already covers).
    if (sharded != nullptr) {
      span = tracer->Begin("sharded", id, -1, n);
      sharded->ContainsBatch(decoded, &answers);
      tracer->End(span);
    }
    if (catalog) {
      // MultiSetIndex resolves each node through this engine; time it on
      // one leaf so its per-key cost is comparable across workloads.
      span = tracer->Begin("engine", id, -1, n);
      engine.ContainsBatch(filter, decoded, &answers);
      tracer->End(span);
    }
    span = tracer->Begin("filter.contains", id, -1, n);
    for (const auto& key : decoded) sink += filter.Contains(key) ? 1 : 0;
    tracer->End(span);
    span = tracer->Begin("hash", id, -1, n);
    for (const auto& key : decoded) sink ^= family.HashPair(0, key).first;
    tracer->End(span);

    ++replay->frames;
    replay->keys += n;
  }
  shbf::DoNotOptimize(sink);
}

}  // namespace

int32_t Tracer::Begin(const char* name, uint64_t id, int32_t parent,
                      uint64_t keys) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, id, parent, now, now, keys});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) { spans_[span].end = Clock::now(); }

void Tracer::Record(const char* name, uint64_t id, int32_t parent,
                    Clock::time_point start, Clock::time_point end,
                    uint64_t keys) {
  spans_.push_back({name, id, parent, start, end, keys});
}

std::map<std::string, Tracer::Layer> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += Ns(span.end - span.start);
  }
  std::map<std::string, Layer> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Layer& layer = layers[spans_[i].name];
    layer.self_ns +=
        static_cast<double>(Ns(spans_[i].end - spans_[i].start) - child_ns[i]);
    ++layer.spans;
    layer.keys += spans_[i].keys;
  }
  return layers;
}

shbf::Status Tracer::WriteJson(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) return shbf::Status::Internal("cannot write " + path);
  for (const Span& span : spans_) {
    std::fprintf(file.get(),
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"keys\": %llu}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 span.parent, static_cast<long long>(Ns(span.start - epoch_)),
                 static_cast<long long>(Ns(span.end - epoch_)),
                 static_cast<unsigned long long>(span.keys));
  }
  if (std::ferror(file.get()) != 0) {
    return shbf::Status::Internal("short write to " + path);
  }
  return shbf::Status::Ok();
}

Replay ReplayLayers(const WorkloadSpec& spec, const Twin& twin,
                    const Pool& pool, Tracer* tracer) {
  Replay warm_up;
  Tracer scratch;
  ReplayPass(spec, twin, pool, &scratch, &warm_up);

  auto& registry = shbf::obs::MetricsRegistry::Global();
  const bool catalog = spec.storage == Storage::kCatalog;
  const uint64_t probes_before = catalog ? twin.index->stats().probes : 0;
  const shbf::obs::MetricsSnapshot before = registry.Snapshot();
  Replay replay;
  ReplayPass(spec, twin, pool, tracer, &replay);
  const shbf::obs::MetricsSnapshot after = registry.Snapshot();
  if (catalog) {
    replay.multiset_probes = twin.index->stats().probes - probes_before;
  }
  replay.multiset_pruned =
      CounterDelta(before, after, "multiset.pruned_keys_total");
  replay.multiset_probes_total =
      CounterDelta(before, after, "multiset.probes_total");
  return replay;
}

double AddNsPerKey(const WorkloadSpec& spec, uint64_t seed) {
  const auto& registry = shbf::FilterRegistry::Global();
  const shbf::FilterSpec filter_spec = MakeFilterSpec(spec);
  const bool catalog = spec.storage == Storage::kCatalog;
  // A catalog adds each set's keys into its own fresh filter; the others
  // add up to 1M member keys into one filter of the served geometry.
  const size_t filters = catalog ? std::min<size_t>(spec.sets, 16) : 1;
  const size_t per_filter =
      catalog ? spec.members : std::min<size_t>(spec.members, size_t{1} << 20);
  double seconds = 0;
  for (size_t f = 0; f < filters; ++f) {
    std::vector<std::string> keys(per_filter);
    for (size_t i = 0; i < per_filter; ++i) {
      keys[i] = catalog ? SetKey(seed, f, i) : MemberKey(seed, i);
    }
    std::unique_ptr<shbf::MembershipFilter> filter;
    if (!registry.Create(spec.filter, filter_spec, &filter).ok()) return 0;
    const shbf::WallTimer timer;
    for (const auto& key : keys) filter->Add(key);
    seconds += timer.ElapsedSeconds();
  }
  return seconds * 1e9 / static_cast<double>(filters * per_filter);
}

shbf::obs::HistogramSnapshot HistogramDelta(
    const shbf::obs::MetricsSnapshot& before,
    const shbf::obs::MetricsSnapshot& after, const std::string& name) {
  shbf::obs::HistogramSnapshot delta;
  delta.name = name;
  const shbf::obs::HistogramSnapshot* end = after.FindHistogram(name);
  if (end == nullptr) return delta;
  delta = *end;
  if (const shbf::obs::HistogramSnapshot* start = before.FindHistogram(name)) {
    delta.count -= start->count;
    delta.sum -= start->sum;
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= start->buckets[i];
    }
  }
  return delta;
}

uint64_t CounterDelta(const shbf::obs::MetricsSnapshot& before,
                      const shbf::obs::MetricsSnapshot& after,
                      const std::string& name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

}  // namespace perfbench
