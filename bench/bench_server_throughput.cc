// Closed-loop throughput of the mdsd query server on loopback: C client
// threads, each with its own connection, issue small box queries
// back-to-back and record end-to-end latency into one shared lock-free
// recorder. Reports req/s and p50/p95/p99 per phase, then drives the
// server into overload (closed-loop concurrency = 2x the admission cap)
// and verifies the server sheds with retryable rejections instead of
// buffering or hanging. Checks (MDS_CHECK) are correctness only — parity
// probes, zero failed requests, cache and breaker counters; speed ratios
// are printed with the host's core count and never fail a run.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "sdss/catalog.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"

namespace mds {
namespace {

/// Small query box #i: a tight cube around a point on the stellar locus,
/// cycling through locus positions so consecutive requests touch
/// different pages.
Box SmallBox(size_t i) {
  double mags[kNumBands];
  StellarLocus(0.05 + 0.9 * static_cast<double>(i % 97) / 97.0, 0.0, mags);
  std::vector<double> lo(mags, mags + kNumBands);
  std::vector<double> hi = lo;
  for (size_t j = 0; j < kNumBands; ++j) {
    lo[j] -= 0.15;
    hi[j] += 0.15;
  }
  return Box(lo, hi);
}

struct PhaseResult {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  double wall_ms = 0.0;
  bench::LatencyRecorder::Digest latency;
};

/// Runs `clients` closed-loop threads for `requests_per_client` requests
/// each; every thread owns one connection and reconnects if an exchange
/// fails. `distinct_boxes` != 0 folds the workload onto that many distinct
/// query boxes (a repeated workload, the response cache's target shape);
/// 0 keeps the full variety. `until` (optional) holds every client in the
/// loop until it turns true; each then sends `requests_per_client` more.
PhaseResult RunClosedLoop(uint16_t port, size_t clients,
                          int requests_per_client, size_t distinct_boxes = 0,
                          const std::atomic<bool>* until = nullptr) {
  bench::LatencyRecorder recorder;
  std::atomic<uint64_t> ok{0}, rejected{0}, failed{0};
  std::vector<std::thread> threads;
  WallTimer wall;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto client = QueryClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failed.fetch_add(static_cast<uint64_t>(requests_per_client));
        return;
      }
      for (int i = 0, after = 0; after < requests_per_client; ++i) {
        if (until == nullptr || until->load()) ++after;
        size_t box_index = t * 131 + static_cast<size_t>(i);
        if (distinct_boxes != 0) box_index %= distinct_boxes;
        const Box box = SmallBox(box_index);
        WallTimer timer;
        auto result = client->PointCount(box);
        recorder.RecordMillis(timer.Millis());
        if (result.ok()) {
          ok.fetch_add(1);
        } else if (result.status().IsTransient()) {
          rejected.fetch_add(1);
        } else {
          failed.fetch_add(1);
          if (!client->connected()) {
            auto again = QueryClient::Connect("127.0.0.1", port);
            if (!again.ok()) return;
            *client = std::move(*again);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  PhaseResult r;
  r.wall_ms = wall.Millis();
  r.ok = ok.load();
  r.rejected = rejected.load();
  r.failed = failed.load();
  r.latency = recorder.Take();
  return r;
}

/// Pipelined counterpart of RunClosedLoop: `clients` threads, each with one
/// connection, issue `batches_per_client` batches of `batch` point counts via
/// QueryClient::PointCountPipeline — all requests of a batch stream out
/// before the first reply is read. Recorded latency is per *request* under
/// load: every request in a batch experienced the batch's wall clock, which
/// is what an open-loop arrival would see.
PhaseResult RunPipelined(uint16_t port, size_t clients, int batches_per_client,
                         size_t batch, size_t distinct_boxes) {
  bench::LatencyRecorder recorder;
  std::atomic<uint64_t> ok{0}, rejected{0}, failed{0};
  std::vector<std::thread> threads;
  WallTimer wall;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto client = QueryClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failed.fetch_add(static_cast<uint64_t>(batches_per_client) * batch);
        return;
      }
      std::vector<Box> boxes;
      boxes.reserve(batch);
      for (int b = 0; b < batches_per_client; ++b) {
        boxes.clear();
        for (size_t i = 0; i < batch; ++i) {
          const size_t box_index =
              (t * 131 + static_cast<size_t>(b) * batch + i) % distinct_boxes;
          boxes.push_back(SmallBox(box_index));
        }
        WallTimer timer;
        auto results = client->PointCountPipeline(boxes);
        const double batch_ms = timer.Millis();
        for (const auto& result : results) {
          recorder.RecordMillis(batch_ms);
          if (result.ok()) {
            ok.fetch_add(1);
          } else if (result.status().IsTransient()) {
            rejected.fetch_add(1);
          } else {
            failed.fetch_add(1);
          }
        }
        if (!client->connected()) {
          auto again = QueryClient::Connect("127.0.0.1", port);
          if (!again.ok()) return;
          *client = std::move(*again);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  PhaseResult r;
  r.wall_ms = wall.Millis();
  r.ok = ok.load();
  r.rejected = rejected.load();
  r.failed = failed.load();
  r.latency = recorder.Take();
  return r;
}

void PrintPhase(const bench::BenchOptions& options, const char* name,
                const PhaseResult& r) {
  const uint64_t total = r.ok + r.rejected + r.failed;
  const double per_sec = r.wall_ms > 0.0
                             ? 1000.0 * static_cast<double>(total) / r.wall_ms
                             : 0.0;
  std::printf("%-22s %8.0f req/s  ok=%llu rejected=%llu failed=%llu\n", name,
              per_sec, (unsigned long long)r.ok,
              (unsigned long long)r.rejected, (unsigned long long)r.failed);
  bench::PrintLatency("  latency", r.latency);
  bench::EmitJsonLatency(options, name, r.latency, per_sec);
}

void Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "mdsd server throughput (loopback, closed-loop clients)",
      "a concurrent network front end sustains >= 10k small queries/s at 4 "
      "workers and sheds (not hangs) at 2x the admission cap");

  DatasetConfig dataset_config;
  dataset_config.num_rows = options.n != 0 ? options.n
                            : options.quick ? 100000
                                            : 500000;
  auto built_catalog = ServedDataset::Build(dataset_config);
  MDS_CHECK(built_catalog.ok());
  const auto dataset =
      std::make_shared<ServedDataset>(std::move(*built_catalog));
  std::printf("dataset: %llu rows, dim %zu\n",
              (unsigned long long)dataset->num_rows(), dataset->dim());

  // --- Phase 1: throughput at 4 workers, cap comfortably above load ----
  {
    ServerConfig config;
    config.num_workers = 4;
    config.max_in_flight = 256;
    QueryServer server(dataset, config);
    MDS_CHECK(server.Start().ok());

    // Correctness probe before the clock starts: one remote count must
    // match a local brute force.
    {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      MDS_CHECK(client.ok());
      const Box probe = SmallBox(0);
      auto count = client->PointCount(probe);
      MDS_CHECK(count.ok());
      uint64_t expected = 0;
      const PointSet& points = dataset->points();
      for (uint64_t i = 0; i < points.size(); ++i) {
        if (probe.Contains(points.point(i))) ++expected;
      }
      MDS_CHECK(*count == expected);
    }

    const int per_client = options.quick ? 250 : 2500;
    std::printf("\n-- throughput: 4 workers, 4 closed-loop clients --\n");
    PhaseResult warm = RunClosedLoop(server.port(), 4, per_client / 5);
    (void)warm;  // connection + page-cache warmup, not reported
    PhaseResult r = RunClosedLoop(server.port(), 4, per_client);
    PrintPhase(options, "server_throughput", r);
    MDS_CHECK(r.failed == 0);
    MDS_CHECK(r.ok > 0);

    const auto stats = server.Stats();
    std::printf(
        "server: %llu requests, peak in-flight %llu, pool reads "
        "%llu logical / %llu physical\n",
        (unsigned long long)stats.requests_total,
        (unsigned long long)stats.in_flight_peak,
        (unsigned long long)stats.pool_logical_reads,
        (unsigned long long)stats.pool_physical_reads);
    server.Shutdown();
  }

  // --- Phase 2: overload — closed-loop concurrency 2x the cap ----------
  {
    ServerConfig config;
    config.num_workers = 2;
    config.max_in_flight = 4;
    QueryServer server(dataset, config);
    MDS_CHECK(server.Start().ok());

    const size_t clients = 2 * config.max_in_flight * 2;  // 2x cap, 2 each
    const int per_client = options.quick ? 50 : 250;
    std::printf("\n-- overload: cap %zu, %zu closed-loop clients --\n",
                config.max_in_flight, clients);
    PhaseResult r = RunClosedLoop(server.port(), clients, per_client);
    PrintPhase(options, "server_overload", r);

    // The shed contract: every request terminated, rejections are the
    // only non-OK outcome, and at this pressure some must have occurred.
    MDS_CHECK(r.failed == 0);
    MDS_CHECK(r.ok > 0);
    MDS_CHECK(r.rejected > 0);
    const auto stats = server.Stats();
    MDS_CHECK(stats.rejected_overload == r.rejected);
    MDS_CHECK(stats.in_flight_peak <= config.max_in_flight);
    std::printf("shed rate: %.1f%% of %llu arrivals\n",
                100.0 * static_cast<double>(r.rejected) /
                    static_cast<double>(r.ok + r.rejected),
                (unsigned long long)(r.ok + r.rejected));
    server.Shutdown();
  }

  // --- Phase 3: response cache on a repeated workload ------------------
  // The same tiny worker pool and admission cap as the overload phase, but
  // with the response cache on and the workload folded onto a fixed set of
  // distinct boxes. Once the cache is warm, hits are answered on reader
  // threads and never enter admission control: with 4x the cap in clients,
  // nothing is shed and the in-flight peak stays below the cap.
  {
    ServerConfig config;
    config.num_workers = 2;
    config.max_in_flight = 4;
    config.cache_bytes = 32u << 20;
    QueryServer server(dataset, config);
    MDS_CHECK(server.Start().ok());

    const size_t kDistinct = 64;
    const size_t hot_clients = 16;
    const int hot_per_client = options.quick ? 100 : 500;
    std::printf("\n-- response cache: %zu distinct boxes, %zu clients --\n",
                kDistinct, hot_clients);

    // Hit ratio over a window = counter deltas across one pass.
    uint64_t last_hits = 0, last_misses = 0;
    auto hit_ratio_since = [&]() {
      const auto stats = server.Stats();
      const uint64_t dh = stats.cache_hits - last_hits;
      const uint64_t dm = stats.cache_misses - last_misses;
      last_hits = stats.cache_hits;
      last_misses = stats.cache_misses;
      return dh + dm == 0
                 ? 0.0
                 : static_cast<double>(dh) / static_cast<double>(dh + dm);
    };

    // Cold pass: one client touches every distinct box once — all misses,
    // each executing through the engine. Its p50 is the execution cost.
    PhaseResult cold = RunClosedLoop(server.port(), 1,
                                     static_cast<int>(kDistinct), kDistinct);
    PrintPhase(options, "server_cache_cold", cold);
    MDS_CHECK(cold.failed == 0);
    const double cold_ratio = hit_ratio_since();
    std::printf("cold pass hit ratio: %.3f\n", cold_ratio);

    // Warm pass at the same concurrency (one client): every request is a
    // hit, so its p50 is the memoized-reply cost — an apples-to-apples
    // latency comparison against the cold pass.
    PhaseResult warm = RunClosedLoop(server.port(), 1,
                                     4 * static_cast<int>(kDistinct),
                                     kDistinct);
    PrintPhase(options, "server_cache_warm", warm);
    const double warm_ratio = hit_ratio_since();
    std::printf("warm pass hit ratio: %.3f (p50 %llu us vs %llu us cold)\n",
                warm_ratio, (unsigned long long)warm.latency.p50_us,
                (unsigned long long)cold.latency.p50_us);
    MDS_CHECK(warm.failed == 0);
    MDS_CHECK(warm_ratio >= 0.9);

    // Hot hammer: 4x the admission cap in clients; everything is memoized
    // and answered on the I/O thread, so nothing is shed and the workers
    // stay idle. The slab counters on the stats wire tail gauge the
    // zero-copy contract: a hit performs no payload memcpy and no slab
    // allocation, so across a pure-hit window reply_tail_copies and
    // slab_allocations may move only for the residual misses plus the
    // one stats reply written after the "before" snapshot.
    auto wire_stats = [&]() {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      MDS_CHECK(client.ok());
      auto stats = client->ServerStats();
      MDS_CHECK(stats.ok());
      return *stats;
    };
    const auto before_hot = wire_stats();
    PhaseResult hot = RunClosedLoop(server.port(), hot_clients,
                                    hot_per_client, kDistinct);
    const auto after_hot = wire_stats();
    PrintPhase(options, "server_cache_hot", hot);
    const double hot_ratio = hit_ratio_since();
    const auto hot_stats = server.Stats();
    std::printf("hot pass hit ratio: %.3f (cache: %llu entries, %llu bytes)\n",
                hot_ratio, (unsigned long long)hot_stats.cache_entries,
                (unsigned long long)hot_stats.cache_bytes);
    MDS_CHECK(hot.failed == 0);
    MDS_CHECK(hot.rejected == 0);  // hits bypass admission control
    MDS_CHECK(hot_ratio >= 0.9);
    MDS_CHECK(hot_stats.in_flight_peak < config.max_in_flight);

    const uint64_t hot_misses = after_hot.cache_misses - before_hot.cache_misses;
    const uint64_t hot_copies =
        after_hot.reply_tail_copies - before_hot.reply_tail_copies;
    const uint64_t hot_allocs =
        after_hot.slab_allocations - before_hot.slab_allocations;
    std::printf("zero-copy hot pass: %llu tail copies, %llu slab allocations "
                "over %llu misses (+1 stats reply); slab bytes in use %llu, "
                "recycle ratio %.2f\n",
                (unsigned long long)hot_copies, (unsigned long long)hot_allocs,
                (unsigned long long)hot_misses,
                (unsigned long long)after_hot.slab_bytes_in_use,
                after_hot.slab_allocations != 0
                    ? static_cast<double>(after_hot.slab_recycles) /
                          static_cast<double>(after_hot.slab_allocations)
                    : 0.0);
    MDS_CHECK(hot_copies <= hot_misses + 1);
    MDS_CHECK(hot_allocs <= hot_misses + 1);
    MDS_CHECK(after_hot.slab_bytes_in_use > 0);  // cache entries pin slices

    // Epoch bump mid-bench: one atomic store invalidates everything. The
    // next pass over the same boxes re-misses (~0 ratio), repopulates,
    // and the pass after that is hot again.
    dataset->BumpEpoch();
    PhaseResult repop = RunClosedLoop(server.port(), 1,
                                      static_cast<int>(kDistinct), kDistinct);
    MDS_CHECK(repop.failed == 0);
    const double bumped_ratio = hit_ratio_since();
    PhaseResult rehot = RunClosedLoop(server.port(), hot_clients,
                                      hot_per_client / 2, kDistinct);
    MDS_CHECK(rehot.failed == 0);
    const double recovered_ratio = hit_ratio_since();
    std::printf(
        "epoch bump: hit ratio %.3f -> %.3f after repopulation\n",
        bumped_ratio, recovered_ratio);
    MDS_CHECK(bumped_ratio <= 0.05);
    MDS_CHECK(recovered_ratio >= 0.9);

    server.Shutdown();
  }

  // --- Phase 4: pipelining — batched streams vs one-request-per-RTT ----
  // 64 connections on a cache-warm repeated workload, so the measured cost
  // is the wire layer itself: framing, syscalls, and scheduler wakeups.
  // One-per-RTT pays that cost per request; the pipelined client streams a
  // whole batch before reading the first reply, amortizing it ~batch-fold.
  // The speedup is reported; batched replies must equal single ones.
  {
    ServerConfig config;
    config.num_workers = 4;
    config.max_in_flight = 256;
    config.cache_bytes = 32u << 20;
    QueryServer server(dataset, config);
    MDS_CHECK(server.Start().ok());

    const size_t kConns = 64;
    const size_t kDistinct = 64;
    const size_t kBatch = 16;
    const int per_client = options.quick ? 128 : 512;  // requests per conn
    std::printf("\n-- pipelining: %zu connections, batch %zu --\n", kConns,
                kBatch);

    // Parity probe before the clock starts: one pipelined batch must agree
    // slot-for-slot with sequential exchanges on the same connection.
    {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      MDS_CHECK(client.ok());
      std::vector<Box> probe_boxes;
      for (size_t i = 0; i < kBatch; ++i) probe_boxes.push_back(SmallBox(i));
      auto batched = client->PointCountPipeline(probe_boxes);
      MDS_CHECK(batched.size() == probe_boxes.size());
      for (size_t i = 0; i < probe_boxes.size(); ++i) {
        auto single = client->PointCount(probe_boxes[i]);
        MDS_CHECK(single.ok());
        MDS_CHECK(batched[i].ok());
        MDS_CHECK(*batched[i] == *single);
      }
    }

    // Warm the response cache over every distinct box, then measure.
    PhaseResult prewarm = RunClosedLoop(server.port(), 2,
                                        2 * static_cast<int>(kDistinct),
                                        kDistinct);
    MDS_CHECK(prewarm.failed == 0);

    PhaseResult serial =
        RunClosedLoop(server.port(), kConns, per_client, kDistinct);
    PrintPhase(options, "server_one_per_rtt", serial);
    MDS_CHECK(serial.failed == 0);

    PhaseResult piped =
        RunPipelined(server.port(), kConns,
                     per_client / static_cast<int>(kBatch), kBatch, kDistinct);
    PrintPhase(options, "server_pipelined", piped);
    MDS_CHECK(piped.failed == 0);
    MDS_CHECK(piped.ok == serial.ok);  // same request count, all answered

    const double serial_per_sec =
        1000.0 * static_cast<double>(serial.ok) / serial.wall_ms;
    const double piped_per_sec =
        1000.0 * static_cast<double>(piped.ok) / piped.wall_ms;
    std::printf("pipelining speedup: %.2fx (%.0f -> %.0f req/s) on %u cores\n",
                piped_per_sec / serial_per_sec, serial_per_sec, piped_per_sec,
                std::thread::hardware_concurrency());
    std::fflush(stdout);

    server.Shutdown();
  }

  // --- Phase 5: scale-out — point counts through mdsc over S shards ----
  // Every shard set re-derives kd-subtree slices of the SAME catalog
  // (same --n/--seed), so each topology answers every query identically;
  // the coordinator fans a point count out to all S backends and sums.
  // The parity probe and failed == 0 are checked at every shard count;
  // the 4-shard speedup is reported with the host's core count.
  {
    std::printf("\n-- scale-out: closed-loop point counts through mdsc --\n");
    uint64_t expected_count = 0;
    {
      const Box probe = SmallBox(7);
      const PointSet& points = dataset->points();
      for (uint64_t i = 0; i < points.size(); ++i) {
        if (probe.Contains(points.point(i))) ++expected_count;
      }
    }

    const int per_client = options.quick ? 150 : 1000;
    double shards1_per_sec = 0.0;
    double shards4_per_sec = 0.0;
    for (const uint32_t num_shards : {1u, 2u, 4u}) {
      // Shard datasets: shard 0 of 1 is the full catalog, already built.
      std::vector<std::unique_ptr<QueryServer>> backends;
      ShardMap map;
      for (uint32_t i = 0; i < num_shards; ++i) {
        std::shared_ptr<ServedDataset> served = dataset;
        if (num_shards > 1) {
          DatasetConfig shard_config = dataset_config;
          shard_config.shard_index = i;
          shard_config.shard_count = num_shards;
          auto built = ServedDataset::Build(shard_config);
          MDS_CHECK(built.ok());
          served = std::make_shared<ServedDataset>(std::move(*built));
        }
        ServerConfig backend_config;
        backend_config.num_workers = 2;
        backend_config.max_in_flight = 256;
        backends.push_back(
            std::make_unique<QueryServer>(served, backend_config));
        MDS_CHECK(backends.back()->Start().ok());
        map.shards.push_back({{"127.0.0.1", backends.back()->port()}});
      }
      Coordinator coordinator(map, CoordinatorConfig{});
      MDS_CHECK(coordinator.Start().ok());
      MDS_CHECK(coordinator.served_rows() == dataset->num_rows());

      // Parity probe before the clock starts: the fanned-out count must
      // match the local brute force, at every shard count.
      {
        auto client = QueryClient::Connect("127.0.0.1", coordinator.port());
        MDS_CHECK(client.ok());
        auto count = client->PointCount(SmallBox(7));
        MDS_CHECK(count.ok());
        MDS_CHECK(*count == expected_count);
      }

      PhaseResult warm =
          RunClosedLoop(coordinator.port(), 4, per_client / 5);
      (void)warm;
      PhaseResult r = RunClosedLoop(coordinator.port(), 4, per_client);
      const std::string name =
          "coordinator_shards_" + std::to_string(num_shards);
      PrintPhase(options, name.c_str(), r);
      MDS_CHECK(r.failed == 0);
      MDS_CHECK(r.ok > 0);

      const double per_sec = 1000.0 * static_cast<double>(r.ok) / r.wall_ms;
      if (num_shards == 1) shards1_per_sec = per_sec;
      if (num_shards == 4) shards4_per_sec = per_sec;

      coordinator.Shutdown();
      for (auto& b : backends) b->Shutdown();
    }

    // Reported, never enforced: every backend, the coordinator and the
    // clients share this host's cores, so the ratio measures the host as
    // much as the fan-out (perfbench's rule — speed ratios never fail a
    // run; correctness above does). Flushed so it survives a later abort.
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("scale-out speedup at 4 shards: %.2fx (%.0f -> %.0f req/s) "
                "on %u cores; topology: 1/2/4 shards x 1 replica, 2 workers "
                "per backend, 4 closed-loop clients, all on this host\n",
                shards4_per_sec / shards1_per_sec, shards1_per_sec,
                shards4_per_sec, cores);
    std::fflush(stdout);
  }

  // --- Phase 6: dead replica — breakers keep degraded throughput up ----
  // 1 shard x 2 replicas over the same catalog. Baseline with both
  // healthy, then kill -9 one replica (Shutdown closes its socket the
  // same way) and measure again. The first few requests eat a
  // connect-refused + failover each; after breaker_failure_threshold
  // consecutive failures the dead replica's breaker opens and every
  // subsequent request short-circuits straight to the survivor, so
  // steady-state throughput should stay near the all-healthy run (reported
  // as a ratio; the breaker counters are checked).
  {
    std::printf("\n-- dead replica: 1 shard x 2 replicas, breakers on --\n");
    ServerConfig backend_config;
    backend_config.num_workers = 2;
    backend_config.max_in_flight = 256;
    QueryServer replica0(dataset, backend_config);
    QueryServer replica1(dataset, backend_config);
    MDS_CHECK(replica0.Start().ok());
    MDS_CHECK(replica1.Start().ok());
    ShardMap map;
    map.shards.push_back({{"127.0.0.1", replica0.port()},
                          {"127.0.0.1", replica1.port()}});
    Coordinator coordinator(map, CoordinatorConfig{});
    MDS_CHECK(coordinator.Start().ok());

    const int per_client = options.quick ? 150 : 1000;
    PhaseResult warm = RunClosedLoop(coordinator.port(), 4, per_client / 5);
    (void)warm;
    PhaseResult healthy = RunClosedLoop(coordinator.port(), 4, per_client);
    PrintPhase(options, "coordinator_all_healthy", healthy);
    MDS_CHECK(healthy.failed == 0);
    MDS_CHECK(healthy.ok > 0);

    replica0.Shutdown();
    // Breaker warmup: absorb the failover-per-request window until the
    // dead replica's breaker opens (threshold is 5 consecutive failures).
    PhaseResult opening = RunClosedLoop(coordinator.port(), 4, 25);
    MDS_CHECK(opening.failed == 0);

    PhaseResult degraded = RunClosedLoop(coordinator.port(), 4, per_client);
    PrintPhase(options, "coordinator_dead_replica", degraded);
    MDS_CHECK(degraded.failed == 0);
    MDS_CHECK(degraded.ok > 0);

    {
      auto client = QueryClient::Connect("127.0.0.1", coordinator.port());
      MDS_CHECK(client.ok());
      auto stats = client->ServerStats();
      MDS_CHECK(stats.ok());
      MDS_CHECK(stats->shards.size() == 1);
      const auto& shard = stats->shards[0];
      std::printf("shard 0 after kill: %u/%u replicas healthy, "
                  "failovers=%llu short-circuits=%llu open breakers=%u\n",
                  shard.healthy_replicas, shard.replicas,
                  (unsigned long long)shard.failovers,
                  (unsigned long long)shard.breaker_short_circuits,
                  shard.open_breakers);
      MDS_CHECK(shard.failovers > 0);
      MDS_CHECK(shard.breaker_short_circuits > 0);
    }

    const double healthy_per_sec =
        1000.0 * static_cast<double>(healthy.ok) / healthy.wall_ms;
    const double degraded_per_sec =
        1000.0 * static_cast<double>(degraded.ok) / degraded.wall_ms;
    std::printf("degraded throughput: %.0f req/s vs %.0f healthy (%.1f%%) "
                "on %u cores\n",
                degraded_per_sec, healthy_per_sec,
                100.0 * degraded_per_sec / healthy_per_sec,
                std::thread::hardware_concurrency());
    std::fflush(stdout);

    coordinator.Shutdown();
    replica1.Shutdown();
  }

  // --- Phase 7: dataset lifecycle — mmap load, parity, live swap -------
  // The offline-build pipeline's bench: write the same catalog to a
  // dataset file, then (a) compare cold-start time for mmap-load vs
  // in-process synthetic build, (b) report the mmap-served server's
  // steady-state throughput against the build-served one over an
  // identical workload, and (c) hot-swap the dataset mid-traffic and
  // compare p99 during the swap window against steady state — with zero
  // failed or shed requests.
  {
    std::printf("\n-- dataset lifecycle: mmap load, parity, live swap --\n");
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_lifecycle.mds")
            .string();
    {
      WallTimer timer;
      DatasetFileOptions file_options;
      file_options.dataset = dataset_config;
      MDS_CHECK(WriteDatasetFile(file_options, path).ok());
      std::printf("offline build+write: %.0f ms (%s)\n", timer.Millis(),
                  path.c_str());
    }

    WallTimer build_timer;
    auto built = ServedDataset::Build(dataset_config);
    const double build_ms = build_timer.Millis();
    MDS_CHECK(built.ok());
    WallTimer load_timer;
    auto loaded = ServedDataset::Load(path);
    const double load_ms = load_timer.Millis();
    MDS_CHECK(loaded.ok());
    std::printf("cold start: build %.0f ms vs %s load %.0f ms (%.1fx)\n",
                build_ms, loaded->mmap_backed() ? "mmap" : "file", load_ms,
                build_ms / load_ms);

    // Steady-state parity: same workload against a build-served and a
    // load-served server. The generations are identical (same seed), so
    // only the pager differs.
    const int per_client = options.quick ? 250 : 2500;
    const auto from_build =
        std::make_shared<const ServedDataset>(std::move(*built));
    const auto from_load =
        std::make_shared<const ServedDataset>(std::move(*loaded));
    auto throughput_of = [&](std::shared_ptr<const ServedDataset> served,
                             const char* name) {
      ServerConfig config;
      config.num_workers = 4;
      config.max_in_flight = 256;
      QueryServer server(served, config);
      MDS_CHECK(server.Start().ok());
      PhaseResult warm = RunClosedLoop(server.port(), 4, per_client / 5);
      (void)warm;
      PhaseResult r = RunClosedLoop(server.port(), 4, per_client);
      PrintPhase(options, name, r);
      MDS_CHECK(r.failed == 0);
      server.Shutdown();
      return 1000.0 * static_cast<double>(r.ok) / r.wall_ms;
    };
    const double build_per_sec =
        throughput_of(from_build, "server_from_build");
    const double mmap_per_sec = throughput_of(from_load, "server_from_mmap");
    std::printf("mmap parity: %.0f req/s vs %.0f built (%.1f%%) on %u cores\n",
                mmap_per_sec, build_per_sec,
                100.0 * mmap_per_sec / build_per_sec,
                std::thread::hardware_concurrency());
    std::fflush(stdout);

    // Live swap: steady p99 first, then the same workload with a reload
    // landing mid-run. The live pass's clients keep going until the epoch
    // flips, then for the steady pass's count again, so the swap always
    // lands under load. Every request must succeed across the swap.
    {
      ServerConfig config;
      config.num_workers = 4;
      config.max_in_flight = 256;
      config.cache_bytes = 32u << 20;
      QueryServer server(from_load, config);
      server.SetReloadHandler(
          [path](const std::string&)
              -> Result<std::shared_ptr<ServedDataset>> {
            auto next = ServedDataset::Load(path);
            if (!next.ok()) return next.status();
            return std::make_shared<ServedDataset>(std::move(*next));
          });
      MDS_CHECK(server.Start().ok());

      // Warm pass over the same boxes: steady and live then both start
      // from a warm cache, and only the swap's invalidation differs.
      MDS_CHECK(RunClosedLoop(server.port(), 4, per_client).failed == 0);
      PhaseResult steady = RunClosedLoop(server.port(), 4, per_client);
      PrintPhase(options, "server_swap_steady", steady);
      MDS_CHECK(steady.failed == 0);

      std::atomic<bool> swapped{false};
      std::thread admin([&] {
        const uint64_t before = server.Stats().dataset_epoch;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        auto client = QueryClient::Connect("127.0.0.1", server.port());
        MDS_CHECK(client.ok());
        QueryClient::Options slow;
        slow.deadline_ms = 60000;
        auto reply = client->Reload("", slow);
        MDS_CHECK(reply.ok());
        MDS_CHECK(reply->new_epoch == reply->old_epoch + 1);
        while (server.Stats().dataset_epoch == before) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        swapped.store(true);
      });
      PhaseResult swapping =
          RunClosedLoop(server.port(), 4, per_client, 0, &swapped);
      admin.join();
      PrintPhase(options, "server_swap_live", swapping);
      MDS_CHECK(swapping.failed == 0);
      MDS_CHECK(swapping.rejected == 0);  // the swap sheds nothing
      MDS_CHECK(server.Stats().dataset_epoch == 2);
      std::printf(
          "live swap p99: %llu us vs %llu us steady (zero failed requests)\n",
          (unsigned long long)swapping.latency.p99_us,
          (unsigned long long)steady.latency.p99_us);
      server.Shutdown();
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace mds

int main(int argc, char** argv) {
  mds::Run(mds::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
