// The traced run. The workload runs twice (untraced, then with a span
// around every client call); counter deltas over the traced window give
// the serving-layer metrics. A fixed seeded query set from the
// mixed-resident generator is then replayed into each layer's public
// functions (storage scan, planner, engine batch, kNN search) and run
// unloaded, one caller, at each rung of the cost ladder:
//
//   ExecuteAccessPath -> QueryEngine::ExecuteBatch -> mdsd loopback
//   (cache off) -> mdsc over 1 shard -> mdsc over 4 shards
//
// so each hop's cost is a subtraction between rungs.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "core/access_path.h"
#include "core/knn.h"
#include "core/query_engine.h"
#include "core/query_planner.h"
#include "geom/polyhedron.h"
#include "workload.h"

namespace perfbench {

using mds::QueryClient;
using mds::Result;
using mds::ServedDataset;
using mds::Status;

namespace {

constexpr size_t kKeepPerOp = 8;
/// Queries in the fixed layer-replay and cost-ladder set: enough for a p99
/// with ten samples beyond it.
constexpr size_t kLadderQueries = 1000;
/// Boxes of the replay set run through the engine-batch gangs.
constexpr size_t kGangQueries = 400;
/// Boxes of the replay set that run both access paths for the planner's
/// regret (the rest run only the chosen one).
constexpr uint64_t kRegretQueries = 300;
/// Queries each ladder rung runs untimed first.
constexpr size_t kRungWarmup = 100;
/// Unloaded endpoint probes per operation the workload's mix lacks.
constexpr size_t kProbesPerOp = 1000;
/// Gang size of the engine-batch replay (the pipelined depth of box-spill).
constexpr size_t kGang = 8;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The fixed replay set: drawn from the mixed-resident generator, so it
/// spans the Figure 5 crossover and carries all three operations.
std::vector<Query> LadderQueries(const ServedDataset& engine, uint64_t seed) {
  QueryGenerator gen(&engine.points(), FindWorkload("mixed-resident")->mix,
                     StreamSeed(seed, 20));
  std::vector<Query> queries;
  for (size_t i = 0; i < kLadderQueries; ++i) queries.push_back(gen.Next());
  return queries;
}

/// The server's two candidate paths for a box, in its registration order
/// (full scan first; ties go to the earlier path).
struct Candidates {
  Candidates(const ServedDataset& e, const mds::Box& box)
      : poly(mds::Polyhedron::FromBox(box)) {
    paths[0] = std::make_unique<mds::FullScanPath>(e.binding(), box);
    paths[1] = std::make_unique<mds::KdTreePath>(e.binding(), e.tree(), poly);
  }
  // The kd-tree path refers to `poly`.
  Candidates(const Candidates&) = delete;
  Candidates& operator=(const Candidates&) = delete;
  size_t Cheapest() const {
    return paths[1]->Estimate().Total() < paths[0]->Estimate().Total() ? 1 : 0;
  }
  mds::Polyhedron poly;
  std::unique_ptr<mds::AccessPath> paths[2];
};

/// Per-layer replay of the fixed set against the in-process dataset.
void ReplayLayers(const ServedDataset& engine,
                  const std::vector<Query>& queries, Tracer* tracer,
                  MetricSet* m) {
  Samples scan_us, choose_us, knn_us, batch_us;
  double chosen_total = 0, best_total = 0;
  uint64_t box_like = 0, wrong = 0;
  uint64_t pages_fetched = 0, rows_emitted = 0, rows_tested = 0;
  uint64_t knn_queries = 0, leaves = 0, knn_points = 0;
  mds::KdKnnSearcher searcher(&engine.tree());
  std::vector<const Query*> gang_queries;

  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (q.op == Op::kKnn) {
      mds::KnnStats stats;
      ScopedSpan span(tracer, "core.knn.search", 0, i + 1);
      const Clock::time_point t = Clock::now();
      searcher.BoundaryGrow(q.point.data(), kKnnK, &stats);
      knn_us.Add(MicrosSince(t));
      ++knn_queries;
      leaves += stats.leaves_examined;
      knn_points += stats.points_examined;
      continue;
    }
    if (gang_queries.size() < kGangQueries) gang_queries.push_back(&q);
    ScopedSpan root(tracer, "replay.box", 0, i + 1);
    Candidates plan(engine, q.box);
    mds::QueryPlanner planner;
    planner.AddPath(std::move(plan.paths[0]))
        .AddPath(std::move(plan.paths[1]));
    size_t chosen = 0;
    {
      ScopedSpan span(tracer, "core.planner.choose", root.id(), i + 1);
      const Clock::time_point t = Clock::now();
      Result<size_t> best = planner.ChooseBest();
      choose_us.Add(MicrosSince(t));
      if (best.ok()) chosen = *best;
    }
    // The chosen path always; on the first kRegretQueries boxes the other
    // path too, in alternating order, for the planner's regret.
    const bool both = box_like < kRegretQueries;
    double path_us[2] = {0, 0};
    mds::QueryStats stats[2];
    for (size_t k = 0; k < 2; ++k) {
      const size_t p = (i + k) % 2;
      if (p != chosen && !both) continue;
      Candidates c(engine, q.box);
      ScopedSpan span(tracer, "storage.scan.execute", root.id(), i + 1);
      const Clock::time_point t = Clock::now();
      mds::ExecuteAccessPath(c.paths[p].get(), &stats[p]);
      path_us[p] = MicrosSince(t);
    }
    scan_us.Add(path_us[chosen]);
    if (both) {
      const double best_us = std::min(path_us[0], path_us[1]);
      chosen_total += path_us[chosen];
      best_total += best_us;
      if (path_us[chosen] > best_us) ++wrong;
    }
    ++box_like;
    pages_fetched += stats[chosen].pages_fetched;
    rows_emitted += stats[chosen].rows_emitted;
    rows_tested += stats[chosen].rows_tested;
  }

  // The server's gang path: each slot picks the cheaper estimate, then one
  // QueryEngine::ExecuteBatch call runs the gang on one thread.
  for (size_t g = 0; g + kGang <= gang_queries.size(); g += kGang) {
    std::vector<std::unique_ptr<Candidates>> slots;
    std::vector<mds::AccessPath*> paths;
    for (size_t k = 0; k < kGang; ++k) {
      slots.push_back(
          std::make_unique<Candidates>(engine, gang_queries[g + k]->box));
      paths.push_back(slots.back()->paths[slots.back()->Cheapest()].get());
    }
    mds::QueryEngine::BatchOptions options;
    options.num_threads = 1;
    ScopedSpan span(tracer, "core.engine.batch", 0, g + 1);
    const Clock::time_point t = Clock::now();
    mds::QueryEngine::ExecuteBatch(paths, options);
    batch_us.Add(MicrosSince(t) / static_cast<double>(kGang));
  }

  m->AddPercentile("storage.scan.execute_us_p50", &scan_us, 0.50);
  m->AddPercentile("storage.scan.execute_us_p99", &scan_us, 0.99);
  m->Add("storage.scan.pages_fetched_per_query",
         Ratio(static_cast<double>(pages_fetched), static_cast<double>(box_like)),
         "count");
  m->Add("storage.scan.pages_per_returned_row",
         Ratio(static_cast<double>(pages_fetched),
               static_cast<double>(rows_emitted)),
         "ratio");
  m->Add("storage.scan.emitted_per_tested",
         Ratio(static_cast<double>(rows_emitted),
               static_cast<double>(rows_tested)),
         "ratio");
  m->AddPercentile("core.planner.choose_us", &choose_us, 0.50);
  m->Add("core.planner.regret", Ratio(chosen_total, best_total), "ratio");
  m->Add("core.planner.wrong_choice_frac",
         Ratio(static_cast<double>(wrong),
               static_cast<double>(std::min(box_like, kRegretQueries))),
         "ratio");
  m->AddPercentile("core.engine.batch_us_per_query", &batch_us, 0.50);
  m->AddPercentile("core.knn.search_us", &knn_us, 0.50);
  m->Add("core.knn.leaves_per_query",
         Ratio(static_cast<double>(leaves), static_cast<double>(knn_queries)),
         "count");
  m->Add("core.knn.points_per_neighbor",
         Ratio(static_cast<double>(knn_points),
               static_cast<double>(knn_queries * kKnnK)),
         "ratio");
}

Status ClientExec(QueryClient* client, const Query& q) {
  switch (q.op) {
    case Op::kPointCount:
      return client->PointCount(q.box).status();
    case Op::kBoxQuery:
      return client->BoxQuery(q.box).status();
    case Op::kKnn:
      return client->Knn(q.point, kKnnK).status();
  }
  return Status::Internal("unknown op");
}

/// One rung: kRungWarmup untimed queries, then a timed pass over the set
/// (one span per query). Returns per-query microseconds in set order.
Result<std::vector<double>> RunRung(
    const char* name, const std::vector<Query>& queries, Tracer* tracer,
    const std::function<Status(const Query&)>& exec) {
  for (size_t i = 0; i < kRungWarmup && i < queries.size(); ++i) {
    MDS_RETURN_NOT_OK(exec(queries[i]));
  }
  std::vector<double> us;
  for (size_t i = 0; i < queries.size(); ++i) {
    ScopedSpan span(tracer, name, 0, i + 1);
    const Clock::time_point t = Clock::now();
    MDS_RETURN_NOT_OK(exec(queries[i]));
    us.push_back(MicrosSince(t));
  }
  return us;
}

double Median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Percentile(0.5);
}

struct ShardView {
  uint64_t requests = 0;
  uint64_t hedges_fired = 0;
  uint64_t hedges_won = 0;
  uint64_t failovers = 0;
};

/// Routing counters of a coordinator's stats summed over shards, as a
/// delta against `before` (null = since start).
ShardView ViewShards(const mds::protocol::ServerStatsSnapshot& after,
                     const mds::protocol::ServerStatsSnapshot* before) {
  ShardView v;
  for (size_t i = 0; i < after.shards.size(); ++i) {
    const auto& s = after.shards[i];
    v.requests += s.requests;
    v.hedges_fired += s.hedges_fired;
    v.hedges_won += s.hedges_won;
    v.failovers += s.failovers;
    if (before != nullptr && i < before->shards.size()) {
      const auto& b = before->shards[i];
      v.requests -= b.requests;
      v.hedges_fired -= b.hedges_fired;
      v.hedges_won -= b.hedges_won;
      v.failovers -= b.failovers;
    }
  }
  return v;
}

Result<std::shared_ptr<ServedDataset>> Shared(Result<ServedDataset> r) {
  if (!r.ok()) return r.status();
  return std::make_shared<ServedDataset>(std::move(*r));
}

struct LadderOutcome {
  std::vector<double> rung_us[5];
  /// Per query, the slowest of the four shard legs sent directly.
  Samples shard_leg_us;
  ShardView shards4;
  double reload_ms = 0;
};

/// Runs the cost ladder. For scatter-4shard the 4-shard rung reuses the
/// workload's backends behind a fresh coordinator; elsewhere it builds
/// the four shard datasets first.
Status RunLadder(const Deployment& d, const std::vector<Query>& queries,
                 Tracer* tracer, LadderOutcome* out) {
  const ServedDataset& engine = *d.engine;
  mds::KdKnnSearcher searcher(&engine.tree());
  auto knn = [&](const Query& q) {
    searcher.BoundaryGrow(q.point.data(), kKnnK);
    return Status::OK();
  };
  // Rung 0: the single-request path of the server, in process.
  MDS_ASSIGN_OR_RETURN(
      out->rung_us[0],
      RunRung("ladder.access_path", queries, tracer, [&](const Query& q) {
        if (q.op == Op::kKnn) return knn(q);
        Candidates c(engine, q.box);
        mds::QueryPlanner planner;
        planner.AddPath(std::move(c.paths[0])).AddPath(std::move(c.paths[1]));
        return planner.Execute().status();
      }));
  // Rung 1: the server's gang path, one query per ExecuteBatch call.
  MDS_ASSIGN_OR_RETURN(
      out->rung_us[1],
      RunRung("ladder.engine_batch", queries, tracer, [&](const Query& q) {
        if (q.op == Op::kKnn) return knn(q);
        Candidates c(engine, q.box);
        mds::QueryEngine::BatchOptions options;
        options.num_threads = 1;
        auto results = mds::QueryEngine::ExecuteBatch(
            {c.paths[c.Cheapest()].get()}, options);
        return results.front().status();
      }));

  // Rung 2: mdsd on loopback, cache off. Its reload handler re-creates the
  // workload's source, so server.reload_ms is timed here too.
  const mds::ServerConfig config = ServingConfig(0);
  const std::string artifact = d.artifact;
  mds::QueryServer mdsd(d.engine, config);
  mdsd.SetReloadHandler([artifact](const std::string&) {
    return artifact.empty() ? Shared(ServedDataset::Build(CatalogConfig()))
                            : Shared(ServedDataset::Load(artifact));
  });
  MDS_RETURN_NOT_OK(mdsd.Start());
  mds::ShardMap one;
  one.shards.push_back({{"127.0.0.1", mdsd.port()}});
  mds::Coordinator mdsc1(one, mds::CoordinatorConfig{});
  MDS_RETURN_NOT_OK(mdsc1.Start());

  std::vector<std::unique_ptr<mds::QueryServer>> own_backends;
  mds::ShardMap four;
  if (d.spec->kind == Kind::kScatter4Shard) {
    for (const auto& s : d.servers) {
      four.shards.push_back({{"127.0.0.1", s->port()}});
    }
  } else {
    for (uint32_t i = 0; i < 4; ++i) {
      Result<ServedDataset> built = ServedDataset::Build(CatalogConfig(i, 4));
      if (!built.ok()) return built.status();
      own_backends.push_back(std::make_unique<mds::QueryServer>(
          std::make_shared<const ServedDataset>(std::move(*built)), config));
      MDS_RETURN_NOT_OK(own_backends.back()->Start());
      four.shards.push_back({{"127.0.0.1", own_backends.back()->port()}});
    }
  }
  mds::Coordinator mdsc4(four, mds::CoordinatorConfig{});
  MDS_RETURN_NOT_OK(mdsc4.Start());

  const char* const names[3] = {"ladder.mdsd", "ladder.mdsc1", "ladder.mdsc4"};
  const uint16_t ports[3] = {mdsd.port(), mdsc1.port(), mdsc4.port()};
  for (size_t r = 0; r < 3; ++r) {
    MDS_ASSIGN_OR_RETURN(QueryClient client,
                         QueryClient::Connect("127.0.0.1", ports[r]));
    MDS_ASSIGN_OR_RETURN(
        out->rung_us[2 + r],
        RunRung(names[r], queries, tracer,
                [&](const Query& q) { return ClientExec(&client, q); }));
  }
  out->shards4 = ViewShards(mdsc4.Stats(), nullptr);

  // The coordinator's legs timed from outside with exact clocks (its own
  // per-shard figures are histogram buckets): each query goes to every
  // shard in turn, and the fan-out waits for the slowest leg.
  std::vector<QueryClient> legs;
  for (const auto& replicas : four.shards) {
    MDS_ASSIGN_OR_RETURN(QueryClient leg,
                         QueryClient::Connect("127.0.0.1", replicas[0].port));
    legs.push_back(std::move(leg));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    double slowest = 0;
    for (QueryClient& leg : legs) {
      ScopedSpan span(tracer, "ladder.shard_leg", 0, i + 1);
      const Clock::time_point t = Clock::now();
      MDS_RETURN_NOT_OK(ClientExec(&leg, queries[i]));
      slowest = std::max(slowest, MicrosSince(t));
    }
    out->shard_leg_us.Add(slowest);
  }

  {
    MDS_ASSIGN_OR_RETURN(QueryClient client,
                         QueryClient::Connect("127.0.0.1", mdsd.port()));
    mds::QueryOptions slow;
    slow.deadline_ms = 60000;
    ScopedSpan span(tracer, "server.reload", 0, 0);
    const Clock::time_point t = Clock::now();
    MDS_ASSIGN_OR_RETURN(mds::protocol::ReloadReply reply,
                         client.Reload("", slow));
    out->reload_ms = MicrosSince(t) / 1e3;
    if (reply.new_epoch != reply.old_epoch + 1) {
      return Status::Internal("ladder reload did not advance the epoch");
    }
  }
  mdsc4.Shutdown();
  mdsc1.Shutdown();
  mdsd.Shutdown();
  for (auto& b : own_backends) b->Shutdown();
  return Status::OK();
}

/// Unloaded probes through the workload's own endpoint, for the per-op
/// percentiles of operations its mix lacks.
Status ProbeEndpoint(const Deployment& d, Op op, uint64_t seed,
                     Tracer* tracer, Samples* us) {
  MDS_ASSIGN_OR_RETURN(QueryClient client,
                       QueryClient::Connect("127.0.0.1", d.port));
  QueryGenerator gen(&d.engine->points(), FindWorkload("mixed-resident")->mix,
                     StreamSeed(seed, 21, static_cast<uint64_t>(op)));
  for (size_t i = 0; i < kProbesPerOp; ++i) {
    const Query q = gen.NextOf(op);
    ScopedSpan span(tracer, "probe.endpoint", 0, i + 1);
    const Clock::time_point t = Clock::now();
    MDS_RETURN_NOT_OK(ClientExec(&client, q));
    us->Add(MicrosSince(t));
  }
  return Status::OK();
}

/// dataset.build_s / write_s / load_s, timed once each on every workload.
Status TimeLifecycle(const std::string& scratch, MetricSet* m) {
  Clock::time_point t = Clock::now();
  {
    Result<ServedDataset> built = ServedDataset::Build(CatalogConfig());
    if (!built.ok()) return built.status();
  }
  m->Add("dataset.build_s", MicrosSince(t) / 1e6, "s");
  const std::string path = scratch + "/lifecycle.mds";
  mds::DatasetFileOptions options;
  options.dataset = CatalogConfig();
  t = Clock::now();
  MDS_RETURN_NOT_OK(mds::WriteDatasetFile(options, path));
  m->Add("dataset.write_s", MicrosSince(t) / 1e6, "s");
  t = Clock::now();
  Result<ServedDataset> loaded = ServedDataset::Load(path);
  const double load_s = MicrosSince(t) / 1e6;
  std::remove(path.c_str());
  if (!loaded.ok()) return loaded.status();
  m->Add("dataset.load_s", load_s, "s");
  return Status::OK();
}

}  // namespace

Status RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 const std::string& scratch_dir, const std::string& trace_path,
                 RunOutcome* out) {
  MetricSet& m = out->metrics;
  Tracer tracer(true, 100);
  Deployment d;
  SetupTimes setup;
  MDS_RETURN_NOT_OK(Deploy(spec, scratch_dir, /*retain_generations=*/true, &d,
                           &setup));
  HotSet hot;
  MDS_RETURN_NOT_OK(Prepare(&d, seed, &hot, out));

  // Untraced then traced halves of the window: their throughput ratio is
  // the tracing overhead.
  WindowOptions o;
  o.seconds = seconds / 2;
  o.stream_seed = StreamSeed(seed, 12);
  o.keep_per_op = kKeepPerOp;
  o.reloads = true;
  const WindowResult plain = RunWindow(d, o, hot);
  Account(d, plain, out);

  const mds::protocol::ServerStatsSnapshot before = d.EndpointStats();
  std::vector<mds::BufferPool*> pools = d.Pools();
  std::vector<mds::CounterSnapshot> pool_before;
  for (mds::BufferPool* p : pools) pool_before.push_back(p->Snapshot());
  if (d.generations) d.generations->BeginWindow();
  o.stream_seed = StreamSeed(seed, 13);
  o.trace = true;
  WindowResult traced = RunWindow(d, o, hot);
  const mds::protocol::ServerStatsSnapshot after = d.EndpointStats();
  mds::CounterSnapshot::Delta pool;
  if (d.generations) {
    pool = d.generations->WindowDelta();
  } else {
    for (size_t i = 0; i < pools.size(); ++i) {
      const auto delta = pools[i]->Delta(pool_before[i]);
      pool.logical_reads += delta.logical_reads;
      pool.physical_reads += delta.physical_reads;
      pool.checksums_verified += delta.checksums_verified;
    }
  }
  Account(d, traced, out);
  tracer.Absorb(traced.tracer);

  std::printf("traced window: %.3f s, %llu ok, %llu reloads; untraced %llu ok "
              "in %.3f s\n",
              traced.seconds, static_cast<unsigned long long>(traced.ok),
              static_cast<unsigned long long>(traced.reloads),
              static_cast<unsigned long long>(plain.ok), plain.seconds);

  // --- window metrics ------------------------------------------------------
  const double served = static_cast<double>(traced.ok);
  m.Add("storage.pool.hit_ratio",
        pool.logical_reads == 0
            ? 1.0
            : 1.0 - Ratio(static_cast<double>(pool.physical_reads),
                          static_cast<double>(pool.logical_reads)),
        "ratio");
  m.Add("storage.pool.physical_reads_per_query",
        Ratio(static_cast<double>(pool.physical_reads), served), "count");
  m.Add("storage.pool.checksums_per_query",
        Ratio(static_cast<double>(pool.checksums_verified), served), "count");

  const double requests =
      static_cast<double>(after.requests_total - before.requests_total);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const size_t pc_index =
      mds::protocol::TypeIndex(mds::protocol::MessageType::kPointCount);
  Samples pc_us = traced.Latencies(static_cast<size_t>(Op::kPointCount));
  // The stats wire's percentiles are histogram buckets; its exact mean,
  // differenced over the window, is what the client mean is compared with.
  const auto& pc_after = after.per_type[pc_index];
  const auto& pc_before = before.per_type[pc_index];
  const double service_mean =
      Ratio(pc_after.mean_us * static_cast<double>(pc_after.count) -
                pc_before.mean_us * static_cast<double>(pc_before.count),
            static_cast<double>(pc_after.count - pc_before.count));
  m.Add("server.service_mean_us", service_mean, "us");
  m.Add("server.wire_queue_us", pc_us.Mean() - service_mean, "us");
  m.Add("server.cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  m.Add("server.cache.evictions_per_req",
        Ratio(static_cast<double>(after.cache_evictions -
                                  before.cache_evictions),
              requests),
        "ratio");
  m.Add("server.bytes_out_per_req",
        Ratio(static_cast<double>(after.bytes_out - before.bytes_out),
              requests),
        "B");
  m.Add("server.reply_tail_copies_per_req",
        Ratio(static_cast<double>(after.reply_tail_copies -
                                  before.reply_tail_copies),
              requests),
        "ratio");
  m.Add("server.slab_allocations_per_req",
        Ratio(static_cast<double>(after.slab_allocations -
                                  before.slab_allocations),
              requests),
        "ratio");
  m.Add("server.in_flight_peak", static_cast<double>(after.in_flight_peak),
        "count");
  m.Add("server.rejected_overload",
        static_cast<double>(after.rejected_overload -
                            before.rejected_overload),
        "count");
  m.Add("server.repopulate_misses",
        traced.reloads == 0 ? 0.0
                            : misses / static_cast<double>(traced.reloads),
        "count");
  m.Add("trace.overhead_frac",
        1.0 - Ratio(served / traced.seconds,
                    static_cast<double>(plain.ok) / plain.seconds),
        "ratio");

  // Per-operation percentiles: from the traced window when the mix has the
  // operation, otherwise from unloaded probes through the same endpoint.
  Samples all_us = traced.Latencies();
  m.AddPercentile("latency_p99_us", &all_us, 0.99);
  m.AddPercentile("point_count_p99_us", &pc_us, 0.99);
  for (Op op : {Op::kBoxQuery, Op::kKnn}) {
    Samples us = traced.Latencies(static_cast<size_t>(op));
    if (spec.mix.share[static_cast<size_t>(op)] == 0) {
      MDS_RETURN_NOT_OK(ProbeEndpoint(d, op, seed, &tracer, &us));
    }
    const std::string name = OpName(op);
    m.AddPercentile(name + "_p50_us", &us, 0.50);
    m.AddPercentile(name + "_p99_us", &us, 0.99);
  }

  // --- layer replay and cost ladder -----------------------------------------
  const std::vector<Query> queries = LadderQueries(*d.engine, seed);
  ReplayLayers(*d.engine, queries, &tracer, &m);
  LadderOutcome ladder;
  MDS_RETURN_NOT_OK(RunLadder(d, queries, &tracer, &ladder));
  const char* const rung_names[5] = {"access_path", "engine_batch", "mdsd",
                                     "mdsc1", "mdsc4"};
  for (size_t r = 0; r < 5; ++r) {
    std::printf("  ladder %-12s p50 %10.1f us", rung_names[r],
                Median(ladder.rung_us[r]));
    if (r > 0) {
      std::vector<double> hop;
      for (size_t i = 0; i < queries.size(); ++i) {
        hop.push_back(ladder.rung_us[r][i] - ladder.rung_us[r - 1][i]);
      }
      std::printf("   hop from %-12s p50 %10.1f us", rung_names[r - 1],
                  Median(hop));
    }
    std::printf("\n");
  }
  m.Add("server.roundtrip_us", Median(ladder.rung_us[2]), "us");
  m.Add("coordinator.roundtrip_us.shards1", Median(ladder.rung_us[3]), "us");
  m.Add("coordinator.roundtrip_us.shards4", Median(ladder.rung_us[4]), "us");
  m.Add("server.reload_ms",
        traced.reloads != 0 ? traced.reload_ms.Percentile(0.5)
                            : ladder.reload_ms,
        "ms");

  // Shard legs come from the ladder's 4-shard rung. Routing counters come
  // from the workload's own coordinator over the traced window on
  // scatter-4shard, and from the ladder's coordinator elsewhere.
  const double leg_p50 = ladder.shard_leg_us.Percentile(0.50);
  m.AddPercentile("coordinator.shard_p50_us", &ladder.shard_leg_us, 0.50);
  m.AddPercentile("coordinator.shard_p99_us", &ladder.shard_leg_us, 0.99);
  m.Add("coordinator.merge_overhead_us", Median(ladder.rung_us[4]) - leg_p50,
        "us");
  const ShardView shards =
      d.coordinator ? ViewShards(after, &before) : ladder.shards4;
  m.Add("coordinator.hedges_fired_per_req",
        Ratio(static_cast<double>(shards.hedges_fired),
              static_cast<double>(shards.requests)),
        "ratio");
  m.Add("coordinator.hedges_won_per_fired",
        Ratio(static_cast<double>(shards.hedges_won),
              static_cast<double>(shards.hedges_fired)),
        "ratio");
  m.Add("coordinator.failovers", static_cast<double>(shards.failovers),
        "count");

  MDS_RETURN_NOT_OK(TimeLifecycle(scratch_dir, &m));
  m.Add("error_rate",
        Ratio(static_cast<double>(out->failed),
              static_cast<double>(out->attempted)),
        "ratio");

  const std::vector<SpanSummary> summary = SummarizeSpans(tracer.spans());
  for (const SpanSummary& s : summary) {
    std::printf("  span %-24s n=%-7llu total %12.1f us  self %12.1f us\n",
                s.name.c_str(), static_cast<unsigned long long>(s.count),
                s.total_us, s.self_us);
  }
  if (!WriteSpans(trace_path, tracer.spans(), summary)) {
    return Status::IOError("cannot write spans to " + trace_path);
  }
  std::printf("spans: %zu written to %s\n", tracer.spans().size(),
              trace_path.c_str());
  return Status::OK();
}

}  // namespace perfbench
