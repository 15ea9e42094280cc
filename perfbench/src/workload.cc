#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/access_path.h"
#include "core/knn.h"
#include "core/simd_dist.h"

namespace perfbench {

using mds::QueryClient;
using mds::Result;
using mds::ServedDataset;
using mds::Status;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const WorkloadSpec kWorkloads[] = {
    {"mixed-resident", Kind::kMixedResident,
     Mix{{0.60, 0.25, 0.15}, {1e-5, 0.5}, {1e-5, 1e-2}},
     /*batch=*/1, kMdsdCacheBytes, /*distinct_boxes=*/0,
     /*reload_every_batches=*/0},
    {"box-spill", Kind::kBoxSpill,
     Mix{{0.70, 0.30, 0.0}, {1e-5, 0.5}, {1e-5, 1e-2}},
     /*batch=*/8, /*cache_bytes=*/0, /*distinct_boxes=*/0,
     /*reload_every_batches=*/0},
    {"hot-pipelined", Kind::kHotPipelined,
     Mix{{1.0, 0.0, 0.0}, {1e-5, 1e-3}, {1e-5, 1e-2}},
     /*batch=*/16, kMdsdCacheBytes, /*distinct_boxes=*/64,
     /*reload_every_batches=*/4096},
    {"scatter-4shard", Kind::kScatter4Shard,
     Mix{{0.70, 0.0, 0.30}, {1e-5, 1e-3}, {1e-5, 1e-2}},
     /*batch=*/1, /*cache_bytes=*/0, /*distinct_boxes=*/0,
     /*reload_every_batches=*/0},
};

const char* const kClientSpan[kNumOps] = {"client.point_count",
                                          "client.box_query", "client.knn"};

/// FillCache's bound: 64 MiB of ~80 KB replies is ~820 requests.
constexpr size_t kMaxFillRequests = 4096;
constexpr double kWarmupSeconds = 1.0;

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --- GenerationLog -----------------------------------------------------------

void GenerationLog::Add(const std::shared_ptr<ServedDataset>& dataset) {
  if (!retain_) return;
  std::lock_guard<std::mutex> lock(mu_);
  generations_.push_back(Generation{dataset, dataset->pool()->Snapshot()});
}

void GenerationLog::BeginWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  // Only the newest generation still serves; older ones are let go.
  if (generations_.size() > 1) {
    generations_.erase(generations_.begin(), generations_.end() - 1);
  }
  for (Generation& g : generations_) g.since = g.dataset->pool()->Snapshot();
}

mds::CounterSnapshot::Delta GenerationLog::WindowDelta() const {
  std::lock_guard<std::mutex> lock(mu_);
  mds::CounterSnapshot::Delta sum;
  for (const Generation& g : generations_) {
    const auto d = g.dataset->pool()->Delta(g.since);
    sum.logical_reads += d.logical_reads;
    sum.physical_reads += d.physical_reads;
    sum.checksums_verified += d.checksums_verified;
    sum.checksum_skips += d.checksum_skips;
  }
  return sum;
}

// --- Deployment --------------------------------------------------------------

mds::protocol::ServerStatsSnapshot Deployment::EndpointStats() const {
  return coordinator ? coordinator->Stats() : servers.front()->Stats();
}

std::vector<mds::BufferPool*> Deployment::Pools() const {
  std::vector<mds::BufferPool*> pools;
  if (!shards.empty()) {
    for (const auto& s : shards) pools.push_back(s->pool());
  } else {
    pools.push_back(engine->pool());
  }
  return pools;
}

void Deployment::Stop() {
  if (coordinator) coordinator->Shutdown();
  for (auto& s : servers) s->Shutdown();
  if (reference) reference->Shutdown();
  coordinator.reset();
  servers.clear();
  reference.reset();
  shards.clear();
  engine.reset();
  generations.reset();
  if (!artifact.empty()) {
    std::remove(artifact.c_str());
    artifact.clear();
  }
}

unsigned ServerWorkers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

mds::ServerConfig ServingConfig(size_t cache_bytes) {
  mds::ServerConfig config;
  config.num_workers = ServerWorkers();
  config.cache_bytes = cache_bytes;
  return config;
}

namespace {

Status StartServer(std::shared_ptr<const ServedDataset> dataset,
                   size_t cache_bytes,
                   mds::QueryServer::ReloadHandler reload_handler,
                   Deployment* d) {
  auto server = std::make_unique<mds::QueryServer>(std::move(dataset),
                                                   ServingConfig(cache_bytes));
  if (reload_handler) server->SetReloadHandler(std::move(reload_handler));
  MDS_RETURN_NOT_OK(server->Start());
  d->servers.push_back(std::move(server));
  return Status::OK();
}

}  // namespace

Status Deploy(const WorkloadSpec& spec, const std::string& scratch_dir,
              bool retain_generations, Deployment* d, SetupTimes* times) {
  d->spec = &spec;
  const Clock::time_point start = Clock::now();
  switch (spec.kind) {
    case Kind::kMixedResident: {
      const Clock::time_point t = Clock::now();
      Result<ServedDataset> built = ServedDataset::Build(CatalogConfig());
      if (!built.ok()) return built.status();
      times->build_s = SecondsSince(t);
      d->engine = std::make_shared<const ServedDataset>(std::move(*built));
      // mdsd's reload of a synthetic source is a rebuild of the same config.
      MDS_RETURN_NOT_OK(StartServer(
          d->engine, spec.cache_bytes,
          [](const std::string&) -> Result<std::shared_ptr<ServedDataset>> {
            Result<ServedDataset> next = ServedDataset::Build(CatalogConfig());
            if (!next.ok()) return next.status();
            return std::make_shared<ServedDataset>(std::move(*next));
          },
          d));
      d->port = d->servers.front()->port();
      break;
    }
    case Kind::kBoxSpill:
    case Kind::kHotPipelined: {
      d->artifact = scratch_dir + "/" + spec.name + ".mds";
      mds::DatasetFileOptions file_options;
      file_options.dataset = CatalogConfig();
      Clock::time_point t = Clock::now();
      MDS_RETURN_NOT_OK(mds::WriteDatasetFile(file_options, d->artifact));
      times->write_s = SecondsSince(t);

      ServedDataset::LoadOptions load_options;
      if (spec.kind == Kind::kBoxSpill) {
        load_options.pool_pages = kSpillPoolPages;
      }
      t = Clock::now();
      Result<ServedDataset> loaded =
          ServedDataset::Load(d->artifact, load_options);
      if (!loaded.ok()) return loaded.status();
      times->load_s = SecondsSince(t);
      auto first = std::make_shared<ServedDataset>(std::move(*loaded));
      d->generations = std::make_shared<GenerationLog>(retain_generations);
      d->generations->Add(first);
      d->engine = first;

      const std::string path = d->artifact;
      std::shared_ptr<GenerationLog> log = d->generations;
      MDS_RETURN_NOT_OK(StartServer(
          first, spec.cache_bytes,
          [path, load_options,
           log](const std::string&) -> Result<std::shared_ptr<ServedDataset>> {
            Result<ServedDataset> next = ServedDataset::Load(path, load_options);
            if (!next.ok()) return next.status();
            auto shared = std::make_shared<ServedDataset>(std::move(*next));
            log->Add(shared);
            return shared;
          },
          d));
      d->port = d->servers.front()->port();
      break;
    }
    case Kind::kScatter4Shard: {
      constexpr uint32_t kShards = 4;
      mds::ShardMap map;
      for (uint32_t i = 0; i < kShards; ++i) {
        const Clock::time_point t = Clock::now();
        Result<ServedDataset> built =
            ServedDataset::Build(CatalogConfig(i, kShards));
        if (!built.ok()) return built.status();
        times->build_s += SecondsSince(t);
        d->shards.push_back(
            std::make_shared<const ServedDataset>(std::move(*built)));
        MDS_RETURN_NOT_OK(
            StartServer(d->shards.back(), spec.cache_bytes, nullptr, d));
        map.shards.push_back({{"127.0.0.1", d->servers.back()->port()}});
      }
      d->coordinator =
          std::make_unique<mds::Coordinator>(map, mds::CoordinatorConfig{});
      MDS_RETURN_NOT_OK(d->coordinator->Start());
      d->port = d->coordinator->port();
      break;
    }
  }
  times->total_s = SecondsSince(start);
  return Status::OK();
}

namespace {

/// scatter-4shard's single-server oracle over the full catalog (cache
/// off); not part of the timed set-up.
Status DeployReference(Deployment* d) {
  Result<ServedDataset> built = ServedDataset::Build(CatalogConfig());
  if (!built.ok()) return built.status();
  d->engine = std::make_shared<const ServedDataset>(std::move(*built));
  d->reference =
      std::make_unique<mds::QueryServer>(d->engine, ServingConfig(0));
  return d->reference->Start();
}

}  // namespace

// --- load ----------------------------------------------------------------------

namespace {

/// One client thread's share of a window.
struct ClientResult {
  Samples latency_us[kSlices][kNumOps];
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t mismatches = 0;
  uint64_t reloads = 0;
  Samples reload_ms;
  std::vector<std::string> violations;
  std::vector<Checked> kept[kNumOps];
  uint64_t seen[kNumOps] = {};
  Clock::time_point end;
};

/// Reservoir sampling of replies for the oracle: every reply of the
/// window has the same chance to be kept.
void Keep(const WindowOptions& o, mds::Rng* rng, ClientResult* r, Checked c) {
  const size_t op = static_cast<size_t>(c.query.op);
  const uint64_t n = ++r->seen[op];
  if (r->kept[op].size() < o.keep_per_op) {
    r->kept[op].push_back(std::move(c));
  } else if (o.keep_per_op != 0) {
    const uint64_t j = rng->NextBounded(n);
    if (j < o.keep_per_op) r->kept[op][j] = std::move(c);
  }
}

void CountFailure(const Status& status, ClientResult* r) {
  if (status.IsTransient()) {
    ++r->rejected;
  } else {
    ++r->failed;
  }
}

void ClientLoop(const Deployment& d, const WindowOptions& o, size_t index,
                const HotSet& hot, std::atomic<size_t>* ready,
                std::atomic<bool>* go,
                const Clock::time_point* start,
                const Clock::time_point* deadline, ClientResult* r,
                Tracer* tracer) {
  const WorkloadSpec& spec = *d.spec;
  Result<QueryClient> client = QueryClient::Connect("127.0.0.1", d.port);
  ready->fetch_add(1);
  if (!client.ok()) {
    r->violations.push_back("connect: " + client.status().ToString());
    return;
  }
  QueryGenerator gen(&d.engine->points(), spec.mix,
                     StreamSeed(o.stream_seed, 1, index));
  mds::Rng rng(StreamSeed(o.stream_seed, 2, index));
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  const Clock::duration slice = (*deadline - *start) / kSlices;
  auto record = [&](size_t op, double us) {
    const auto k = static_cast<size_t>((Clock::now() - *start) / slice);
    r->latency_us[std::min(k, kSlices - 1)][op].Add(us);
  };

  uint64_t seq = 0;
  size_t batches = 0;
  std::vector<Query> batch;
  std::vector<mds::Box> boxes;
  std::vector<size_t> hot_index;
  while (Clock::now() < *deadline) {
    const uint64_t request = (static_cast<uint64_t>(index + 1) << 32) | ++seq;
    if (spec.batch == 1) {
      Query q = gen.Next();
      const size_t op = static_cast<size_t>(q.op);
      ScopedSpan span(tracer, kClientSpan[op], 0, request);
      const Clock::time_point t = Clock::now();
      Checked c;
      Status status = Status::OK();
      if (q.op == Op::kPointCount) {
        Result<uint64_t> reply = client->PointCount(q.box);
        if (reply.ok()) c.count = *reply;
        status = reply.status();
      } else if (q.op == Op::kBoxQuery) {
        Result<QueryClient::QueryResult> reply = client->BoxQuery(q.box);
        if (reply.ok()) {
          c.count = reply->row_count;
          c.objids = std::move(reply->objids);
        }
        status = reply.status();
      } else {
        Result<QueryClient::KnnResult> reply = client->Knn(q.point, kKnnK);
        if (reply.ok()) c.neighbors = std::move(reply->neighbors);
        status = reply.status();
      }
      const double us = MicrosSince(t);
      if (status.ok()) {
        record(op, us);
        c.query = std::move(q);
        Keep(o, &rng, r, std::move(c));
      } else {
        CountFailure(status, r);
      }
    } else {
      // One pipelined batch of a single operation; every request in it
      // takes the batch's wall time.
      batch.clear();
      boxes.clear();
      hot_index.clear();
      if (spec.distinct_boxes != 0) {
        for (size_t i = 0; i < spec.batch; ++i) {
          hot_index.push_back(rng.NextBounded(hot.boxes.size()));
          boxes.push_back(hot.boxes[hot_index.back()].box);
        }
      } else {
        batch.push_back(gen.Next());
        while (batch.size() < spec.batch) {
          batch.push_back(gen.NextOf(batch.front().op));
        }
        for (const Query& q : batch) boxes.push_back(q.box);
      }
      const Op op_kind = batch.empty() ? Op::kPointCount : batch.front().op;
      const size_t op = static_cast<size_t>(op_kind);
      ScopedSpan span(tracer, kClientSpan[op], 0, request);
      const Clock::time_point t = Clock::now();
      if (op_kind == Op::kPointCount) {
        std::vector<Result<uint64_t>> replies =
            client->PointCountPipeline(boxes);
        const double us = MicrosSince(t);
        for (size_t i = 0; i < replies.size(); ++i) {
          if (!replies[i].ok()) {
            CountFailure(replies[i].status(), r);
            continue;
          }
          record(op, us);
          if (!hot_index.empty()) {
            if (*replies[i] != hot.counts[hot_index[i]]) ++r->mismatches;
          } else {
            Checked c;
            c.query = std::move(batch[i]);
            c.count = *replies[i];
            Keep(o, &rng, r, std::move(c));
          }
        }
      } else {
        std::vector<Result<QueryClient::QueryResult>> replies =
            client->BoxQueryPipeline(boxes);
        const double us = MicrosSince(t);
        for (size_t i = 0; i < replies.size(); ++i) {
          if (!replies[i].ok()) {
            CountFailure(replies[i].status(), r);
            continue;
          }
          record(op, us);
          Checked c;
          c.query = std::move(batch[i]);
          c.count = replies[i]->row_count;
          c.objids = std::move(replies[i]->objids);
          Keep(o, &rng, r, std::move(c));
        }
      }
      ++batches;
      if (o.reloads && index == 0 && spec.reload_every_batches != 0 &&
          batches % spec.reload_every_batches == 0) {
        ScopedSpan reload_span(tracer, "client.reload", 0, request);
        mds::QueryOptions slow;
        slow.deadline_ms = 60000;
        const Clock::time_point rt = Clock::now();
        Result<mds::protocol::ReloadReply> reply = client->Reload("", slow);
        r->reload_ms.Add(MicrosSince(rt) / 1e3);
        if (!reply.ok()) {
          r->violations.push_back("reload: " + reply.status().ToString());
        } else if (reply->new_epoch != reply->old_epoch + 1 ||
                   d.EndpointStats().dataset_epoch < reply->new_epoch) {
          r->violations.push_back("reload did not advance dataset_epoch");
        }
        ++r->reloads;
      }
    }
    if (!client->connected()) {
      Result<QueryClient> again = QueryClient::Connect("127.0.0.1", d.port);
      if (!again.ok()) {
        r->violations.push_back("reconnect: " + again.status().ToString());
        break;
      }
      *client = std::move(*again);
    }
  }
  r->end = Clock::now();
}

}  // namespace

WindowResult RunWindow(const Deployment& d, const WindowOptions& o,
                       const HotSet& hot) {
  std::vector<ClientResult> results(kClients);
  std::vector<Tracer> tracers;
  for (size_t i = 0; i < kClients; ++i) {
    tracers.emplace_back(o.trace, static_cast<uint32_t>(i + 1));
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start{};
  Clock::time_point deadline = Clock::time_point::max();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back(ClientLoop, std::cref(d), std::cref(o), i,
                         std::cref(hot), &ready, &go, &start, &deadline,
                         &results[i], &tracers[i]);
  }
  // Every client is connected before the window opens.
  while (ready.load() < kClients) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  WindowResult w;
  w.tracer = Tracer(o.trace, 0);
  Clock::time_point end = start;
  for (size_t i = 0; i < kClients; ++i) {
    ClientResult& r = results[i];
    for (size_t op = 0; op < kNumOps; ++op) {
      for (size_t k = 0; k < kSlices; ++k) {
        w.latency_us[k][op].Append(r.latency_us[k][op]);
        w.ok += r.latency_us[k][op].count();
      }
      for (Checked& c : r.kept[op]) w.checked.push_back(std::move(c));
    }
    w.failed += r.failed;
    w.rejected += r.rejected;
    w.mismatches += r.mismatches;
    w.reloads += r.reloads;
    w.reload_ms.Append(r.reload_ms);
    for (auto& v : r.violations) w.violations.push_back(v);
    end = std::max(end, r.end);
    w.tracer.Absorb(tracers[i]);
  }
  w.attempted = w.ok + w.failed + w.rejected;
  w.seconds = std::chrono::duration<double>(end - start).count();
  // The last slice also holds the replies that landed after the deadline.
  for (size_t k = 0; k < kSlices; ++k) w.slice_seconds[k] = o.seconds / kSlices;
  w.slice_seconds[kSlices - 1] = w.seconds - o.seconds * (kSlices - 1) / kSlices;
  return w;
}

Samples WindowResult::Latencies(size_t op, size_t slice) const {
  Samples out;
  for (size_t k = 0; k < kSlices; ++k) {
    if (slice != kSlices && k != slice) continue;
    for (size_t o = 0; o < kNumOps; ++o) {
      if (op == kNumOps || o == op) out.Append(latency_us[k][o]);
    }
  }
  return out;
}

double WindowResult::SliceMedian(size_t op, double q) const {
  Samples per_slice;
  for (size_t k = 0; k < kSlices; ++k) {
    per_slice.Add(Latencies(op, k).Percentile(q));
  }
  return per_slice.Percentile(0.5);
}

double WindowResult::SliceThroughput() const {
  Samples per_slice;
  for (size_t k = 0; k < kSlices; ++k) {
    per_slice.Add(static_cast<double>(Latencies(kNumOps, k).count()) /
                  slice_seconds[k]);
  }
  return per_slice.Percentile(0.5);
}

namespace {

Status FillCache(const Deployment& d, uint64_t seed) {
  if (d.spec->cache_bytes == 0 || d.spec->distinct_boxes != 0) {
    return Status::OK();
  }
  // Replies at the box_query selectivity cap (~80 KB each) fill the cache
  // in about a second.
  Mix fill = d.spec->mix;
  fill.box_query_sel[0] = fill.box_query_sel[1];
  std::atomic<bool> full{false};
  std::vector<Status> status(kClients, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Result<QueryClient> client = QueryClient::Connect("127.0.0.1", d.port);
      if (!client.ok()) {
        status[t] = client.status();
        return;
      }
      QueryGenerator gen(&d.engine->points(), fill, StreamSeed(seed, 4, t));
      for (size_t i = 0; i < kMaxFillRequests && !full.load(); ++i) {
        Result<QueryClient::QueryResult> r =
            client->BoxQuery(gen.NextOf(Op::kBoxQuery).box);
        if (!r.ok()) {
          status[t] = r.status();
          return;
        }
        if (t == 0 && d.EndpointStats().cache_evictions != 0) full = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : status) MDS_RETURN_NOT_OK(s);
  if (!full) return Status::Internal("response cache did not fill");
  return Status::OK();
}

}  // namespace

Status Prepare(Deployment* d, uint64_t seed, HotSet* hot, RunOutcome* out) {
  if (d->spec->kind == Kind::kScatter4Shard) {
    MDS_RETURN_NOT_OK(DeployReference(d));
  }
  const mds::PointSet& points = d->engine->points();
  QueryGenerator gen(&points, d->spec->mix, StreamSeed(seed, 3));
  for (size_t i = 0; i < d->spec->distinct_boxes; ++i) {
    hot->boxes.push_back(gen.NextOf(Op::kPointCount));
    hot->counts.push_back(BruteForceCount(points, hot->boxes.back().box));
  }
  WindowOptions warm;
  warm.seconds = kWarmupSeconds;
  warm.stream_seed = StreamSeed(seed, 10);
  for (const std::string& v : RunWindow(*d, warm, *hot).violations) {
    out->problems.push_back("warm-up: " + v);
  }
  return FillCache(*d, seed);
}

// --- oracle ----------------------------------------------------------------

uint64_t BruteForceCount(const mds::PointSet& points, const mds::Box& box) {
  constexpr size_t kChunk = 1 << 16;
  std::vector<uint8_t> mask(kChunk);
  const size_t dim = points.dim();
  uint64_t count = 0;
  for (size_t begin = 0; begin < points.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, points.size() - begin);
    mds::BoxContainsBatch(box.lo().data(), box.hi().data(),
                          points.raw().data() + begin * dim, n, dim,
                          mask.data());
    for (size_t i = 0; i < n; ++i) count += mask[i];
  }
  return count;
}

namespace {

bool SameNeighbors(const std::vector<mds::protocol::WireNeighbor>& a,
                   const std::vector<mds::protocol::WireNeighbor>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(a[0])) == 0);
}

}  // namespace

uint64_t CheckReplies(const Deployment& d, const std::vector<Checked>& replies,
                      std::string* first) {
  const ServedDataset& engine = *d.engine;
  mds::KdKnnSearcher searcher(&engine.tree());
  Result<QueryClient> reference = Status::Unavailable("no reference");
  if (d.reference) {
    reference = QueryClient::Connect("127.0.0.1", d.reference->port());
  }
  uint64_t mismatches = 0;
  auto mismatch = [&](const Checked& c, const std::string& what) {
    if (mismatches++ == 0) {
      *first = std::string(OpName(c.query.op)) + ": " + what;
    }
  };
  for (const Checked& c : replies) {
    switch (c.query.op) {
      case Op::kPointCount: {
        const uint64_t expected = BruteForceCount(engine.points(), c.query.box);
        if (c.count != expected) {
          mismatch(c, "count " + std::to_string(c.count) + " != brute force " +
                          std::to_string(expected));
        }
        break;
      }
      case Op::kBoxQuery: {
        mds::FullScanPath path(engine.binding(), c.query.box);
        Result<mds::StorageQueryResult> scan = mds::ExecuteAccessPath(&path);
        if (!scan.ok() || scan->objids != c.objids ||
            c.count != c.objids.size()) {
          mismatch(c, "objids differ from the clustered full scan");
        }
        break;
      }
      case Op::kKnn: {
        std::vector<mds::protocol::WireNeighbor> expected;
        for (const mds::Neighbor& n :
             searcher.BruteForce(c.query.point.data(), kKnnK)) {
          expected.push_back({static_cast<int64_t>(n.id), n.squared_distance});
        }
        if (!SameNeighbors(expected, c.neighbors)) {
          mismatch(c, "neighbors differ from brute force (d2, id) order");
        }
        break;
      }
    }
    if (!d.reference) continue;
    // scatter-4shard: the merged answer must equal one mdsd's, byte for
    // byte (the coordinator's shard-coverage tail and the per-shard I/O
    // counters are excluded: they describe the topology, not the answer).
    if (!reference.ok()) {
      mismatch(c, "reference mdsd unreachable");
      continue;
    }
    bool same = false;
    if (c.query.op == Op::kPointCount) {
      Result<uint64_t> r = reference->PointCount(c.query.box);
      same = r.ok() && *r == c.count;
    } else if (c.query.op == Op::kBoxQuery) {
      auto r = reference->BoxQuery(c.query.box);
      same = r.ok() && r->row_count == c.count && r->objids == c.objids;
    } else {
      auto r = reference->Knn(c.query.point, kKnnK);
      same = r.ok() && SameNeighbors(r->neighbors, c.neighbors);
    }
    if (!same) mismatch(c, "reply differs from the single-mdsd reference");
  }
  return mismatches;
}

void Account(const Deployment& d, const WindowResult& w, RunOutcome* out) {
  std::string first;
  const uint64_t mismatches = w.mismatches + CheckReplies(d, w.checked, &first);
  out->attempted += w.attempted;
  out->failed += w.failed + w.rejected + mismatches;
  if (w.mismatches != 0) first = "hot point_count differs from brute force";
  if (mismatches != 0) {
    out->problems.push_back(std::to_string(mismatches) +
                            " oracle mismatches, first: " + first);
  }
  if (w.failed + w.rejected != 0) {
    out->problems.push_back(std::to_string(w.failed) + " failed and " +
                            std::to_string(w.rejected) +
                            " rejected requests in a healthy workload");
  }
  for (const std::string& v : w.violations) out->problems.push_back(v);
}

}  // namespace perfbench
