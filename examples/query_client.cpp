// query_client — walkthrough of the mdsd wire client.
//
// Run the server in one terminal:
//   ./build/src/server/mdsd --quick
//   mdsd: serving 100000 rows on 127.0.0.1:PORT
//
// then point this example at it:
//   ./build/examples/query_client PORT
//
// With no arguments it starts an in-process server over a small dataset,
// runs the same walkthrough against it, and shuts it down — so the
// example is also a self-contained smoke test (CI runs it both ways).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sdss/catalog.h"
#include "server/client.h"
#include "server/dataset.h"
#include "server/server.h"

using namespace mds;

namespace {

Box LocusBox(double half_width) {
  double mags[kNumBands];
  StellarLocus(0.5, 0.0, mags);
  std::vector<double> lo(mags, mags + kNumBands);
  std::vector<double> hi = lo;
  for (size_t j = 0; j < kNumBands; ++j) {
    lo[j] -= half_width;
    hi[j] += half_width;
  }
  return Box(lo, hi);
}

int Walkthrough(uint16_t port) {
  // 1. Connect. One QueryClient = one connection = one request at a time.
  auto client = QueryClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  // 2. Health: what is this server serving?
  auto health = client->Health();
  if (!health.ok()) {
    std::fprintf(stderr, "health failed: %s\n",
                 health.status().ToString().c_str());
    return 1;
  }
  std::printf("connected: %llu rows, dim %u%s\n",
              (unsigned long long)health->served_rows, health->dim,
              health->draining ? " (draining)" : "");

  // 3. Count, then fetch, the stars near the stellar locus.
  const Box box = LocusBox(0.8);
  auto count = client->PointCount(box);
  if (!count.ok()) {
    std::fprintf(stderr, "count failed: %s\n",
                 count.status().ToString().c_str());
    return 1;
  }
  std::printf("locus box holds %llu objects\n", (unsigned long long)*count);

  auto rows = client->BoxQuery(box, /*limit=*/5);
  if (!rows.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }
  std::printf("box query via %s: %llu rows, %llu pages fetched; first ids:",
              rows->chosen_path.c_str(), (unsigned long long)rows->row_count,
              (unsigned long long)rows->pages_fetched);
  for (int64_t id : rows->objids) std::printf(" %lld", (long long)id);
  std::printf("\n");

  // 4. Per-request options: planner hints, deadlines, degraded reads.
  QueryClient::Options opts;
  opts.force_full_scan = true;  // compare the clustered scan's I/O
  opts.deadline_ms = 10000;     // server drops it if it can't run in time
  auto scan = client->BoxQuery(box, 0, opts);
  if (scan.ok()) {
    std::printf("forced %s: %llu rows scanned, %llu pages fetched\n",
                scan->chosen_path.c_str(),
                (unsigned long long)scan->rows_scanned,
                (unsigned long long)scan->pages_fetched);
  }

  // 5. kNN: the 3 nearest stored objects to a locus point.
  double mags[kNumBands];
  StellarLocus(0.3, 0.0, mags);
  auto knn = client->Knn(std::vector<double>(mags, mags + kNumBands), 3);
  if (!knn.ok()) {
    std::fprintf(stderr, "knn failed: %s\n", knn.status().ToString().c_str());
    return 1;
  }
  std::printf("3 nearest neighbors:");
  for (const auto& n : knn->neighbors) {
    std::printf(" (id %lld, d2 %.4f)", (long long)n.id, n.squared_distance);
  }
  std::printf("\n");

  // 6. TABLESAMPLE: a reproducible 10% page sample, TOP(5), in the box.
  auto sample = client->TableSample(box, 10.0, 5, /*seed=*/42);
  if (sample.ok()) {
    std::printf("tablesample(10%%) TOP(5):");
    for (int64_t id : sample->objids) std::printf(" %lld", (long long)id);
    std::printf("\n");
  }

  // 7. Partial results: against an mdsc coordinator, allow_partial lets
  // the reply degrade to the surviving shards when some are down (the
  // reply says how many answered). A plain mdsd always owns 100% of the
  // data, so it ignores the flag and reports no shard coverage.
  QueryClient::Options partial_opts;
  partial_opts.allow_partial = true;
  partial_opts.deadline_ms = 10000;
  auto best_effort = client->BoxQuery(box, /*limit=*/5, partial_opts);
  if (best_effort.ok()) {
    if (best_effort->shards_total == 0) {
      std::printf("allow_partial: single-server reply, always complete\n");
    } else {
      std::printf("allow_partial: %u/%u shards answered (%s)\n",
                  best_effort->shards_answered, best_effort->shards_total,
                  best_effort->partial ? "PARTIAL result" : "complete");
    }
  }

  // 8. Pipelining: stream a whole batch of requests before reading the
  // first reply. One RTT's worth of syscalls covers all of them; replies
  // come back correlated by request id, and a bad request fails only its
  // own slot.
  std::vector<Box> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(LocusBox(0.2 + 0.2 * i));
  auto counts = client->PointCountPipeline(batch);
  std::printf("pipelined counts (4 boxes, one round trip):");
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i].ok()) {
      std::printf(" %llu", (unsigned long long)*counts[i]);
    } else {
      std::printf(" <%s>",
                  std::string(StatusCodeToString(counts[i].status().code()))
                      .c_str());
    }
  }
  std::printf("\n");

  // 9. Server stats: counters plus per-type latency percentiles.
  auto stats = client->ServerStats();
  if (!stats.ok()) {
    std::fprintf(stderr, "stats failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("server: %llu requests, %llu ok, %llu bytes out\n",
              (unsigned long long)stats->requests_total,
              (unsigned long long)stats->replies_ok,
              (unsigned long long)stats->bytes_out);
  std::printf("cache: %llu hits, %llu misses, %llu bytes (epoch %llu)\n",
              (unsigned long long)stats->cache_hits,
              (unsigned long long)stats->cache_misses,
              (unsigned long long)stats->cache_bytes,
              (unsigned long long)stats->dataset_epoch);
  if (stats->accept_errors > 0) {
    std::printf("accept backoffs (fd exhaustion): %llu\n",
                (unsigned long long)stats->accept_errors);
  }
  const auto& pc =
      stats->per_type[protocol::TypeIndex(protocol::MessageType::kPointCount)];
  if (pc.count > 0) {
    std::printf("point-count latency: p50=%lluus p99=%lluus over %llu calls\n",
                (unsigned long long)pc.p50_us, (unsigned long long)pc.p99_us,
                (unsigned long long)pc.count);
  }
  // Non-empty only when the far end is an mdsc coordinator: per-shard
  // routing counters (the server-smoke failover phase greps these).
  // `requests` counts legs sent; `pruned` counts requests whose answer
  // the shard's routing box ruled out, so no leg went to it.
  for (size_t s = 0; s < stats->shards.size(); ++s) {
    const auto& shard = stats->shards[s];
    std::printf("shard %zu: %u/%u replicas healthy, %llu requests, "
                "pruned=%llu failovers=%llu hedges=%llu/%llu errors=%llu "
                "p50=%lluus p99=%lluus\n",
                s, shard.healthy_replicas, shard.replicas,
                (unsigned long long)shard.requests,
                (unsigned long long)shard.pruned,
                (unsigned long long)shard.failovers,
                (unsigned long long)shard.hedges_won,
                (unsigned long long)shard.hedges_fired,
                (unsigned long long)shard.backend_errors,
                (unsigned long long)shard.p50_us,
                (unsigned long long)shard.p99_us);
    if (shard.open_breakers > 0 || shard.half_open_breakers > 0 ||
        shard.retries_denied > 0 || shard.breaker_short_circuits > 0) {
      std::printf("  breakers: %u open, %u half-open; %llu retries denied, "
                  "%llu attempts short-circuited\n",
                  shard.open_breakers, shard.half_open_breakers,
                  (unsigned long long)shard.retries_denied,
                  (unsigned long long)shard.breaker_short_circuits);
    }
  }
  if (!stats->shards.empty()) {
    std::printf("knn second waves: %llu\n",
                (unsigned long long)stats->knn_second_waves);
  }
  if (stats->partial_replies > 0) {
    std::printf("partial replies served: %llu\n",
                (unsigned long long)stats->partial_replies);
  }

  // 10. Hot swap: ask the server to reload its dataset (empty path =
  // reload the current source). The new generation is built and
  // validated while queries keep running, then swapped in with an epoch
  // bump that invalidates the response cache wholesale — this same
  // connection keeps working across the swap, no reconnect. A server
  // without a reload handler refuses with FailedPrecondition.
  const uint64_t epoch_before = stats->dataset_epoch;
  QueryClient::Options reload_opts;
  reload_opts.deadline_ms = 60000;  // the reload covers a dataset build
  auto reloaded = client->Reload("", reload_opts);
  if (reloaded.ok()) {
    std::printf("reload: epoch %llu -> %llu, %llu rows, same connection\n",
                (unsigned long long)reloaded->old_epoch,
                (unsigned long long)reloaded->new_epoch,
                (unsigned long long)reloaded->served_rows);
    auto after = client->ServerStats();
    if (after.ok()) {
      std::printf("stats confirm epoch %llu -> %llu\n",
                  (unsigned long long)epoch_before,
                  (unsigned long long)after->dataset_epoch);
    }
  } else {
    std::printf("reload not available here: %s\n",
                reloaded.status().ToString().c_str());
  }

  std::printf("query_client: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    // Against an external mdsd (started separately; see file header).
    return Walkthrough(static_cast<uint16_t>(std::atoi(argv[1])));
  }

  // Self-contained: in-process server over a small dataset.
  DatasetConfig dataset_config;
  dataset_config.num_rows = 50000;
  auto dataset = ServedDataset::Build(dataset_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset build failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  auto served = std::make_shared<const ServedDataset>(std::move(*dataset));
  QueryServer server(served, ServerConfig{});
  // Same-config rebuild on reload: a no-op generation with byte-identical
  // replies, demonstrating the epoch bump without changing the data.
  server.SetReloadHandler(
      [dataset_config](const std::string&)
          -> Result<std::shared_ptr<ServedDataset>> {
        auto next = ServedDataset::Build(dataset_config);
        if (!next.ok()) return next.status();
        return std::make_shared<ServedDataset>(std::move(*next));
      });
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("in-process mdsd on 127.0.0.1:%u\n", server.port());
  const int rc = Walkthrough(server.port());
  server.Shutdown();
  return rc;
}
