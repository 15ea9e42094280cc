// Thread-scaling of the parallel query machinery (DESIGN.md "Concurrency
// model"): intra-query ParallelRangeScanner speedup, inter-query
// ExecuteBatch throughput and the parallel kd-tree build, at 1/2/4/8
// workers over one shared lock-striped BufferPool, plus the same batch over
// a pool of 1/8 of the table (spill), where most fetches miss and load
// through the pager. Correctness is asserted inline: every parallel
// execution must return the serial objid sequence, and (limit == 0) the
// identical pages_fetched count.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "core/access_path.h"
#include "core/kdtree.h"
#include "core/point_table.h"
#include "core/query_engine.h"
#include "sdss/catalog.h"
#include "storage/pager.h"

namespace mds {
namespace {

std::vector<Polyhedron> MakeQueryBatch(size_t count) {
  std::vector<Polyhedron> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    double mags[kNumBands];
    StellarLocus(0.1 + 0.8 * static_cast<double>(q) / count, 0.0, mags);
    std::vector<double> center(mags, mags + kNumBands);
    const double radius = 0.2 * (1 << (q % 5));
    queries.push_back(Polyhedron::BallApproximation(center, radius, 24));
  }
  return queries;
}

void Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "parallel query scaling over the shared buffer pool",
      "parallel execution is an invisible optimization: identical results "
      "and page accounting, lower wall clock as workers are added");

  const unsigned hw = QueryThreads();
  std::printf("hardware threads (QueryThreads) = %u%s\n", hw,
              hw == 1 ? "  [single-core host: expect flat scaling]" : "");

  CatalogConfig config;
  config.num_objects = options.n != 0 ? options.n
                       : options.quick ? 200000
                                       : 2000000;
  Catalog cat = GenerateCatalog(config);
  const PointSet& points = cat.colors;

  // Parallel kd-tree build scaling (the tree is bit-identical per thread
  // count; the serial build is the baseline and the reference tree).
  std::printf("\n-- kd-tree build, N=%zu --\n", points.size());
  std::printf("%-8s %-10s %-9s\n", "threads", "build_ms", "speedup");
  KdTreeConfig serial_tree_config;
  serial_tree_config.build_threads = 1;
  WallTimer serial_build_timer;
  auto tree = KdTreeIndex::Build(&points, serial_tree_config);
  MDS_CHECK(tree.ok());
  const double serial_build_ms = serial_build_timer.Millis();
  std::printf("%-8u %-10.1f %-9.2f\n", 1u, serial_build_ms, 1.0);
  bench::EmitJson(options, "kd_build_t1", points.size(), serial_build_ms, 0);
  for (unsigned threads : {2u, 4u, 8u}) {
    KdTreeConfig tree_config;
    tree_config.build_threads = threads;
    WallTimer timer;
    auto parallel_tree = KdTreeIndex::Build(&points, tree_config);
    MDS_CHECK(parallel_tree.ok());
    const double ms = timer.Millis();
    MDS_CHECK(parallel_tree->clustered_order() == tree->clustered_order());
    std::printf("%-8u %-10.1f %-9.2f\n", threads, ms, serial_build_ms / ms);
    char name[32];
    std::snprintf(name, sizeof(name), "kd_build_t%u", threads);
    bench::EmitJson(options, name, points.size(), ms, 0);
  }

  MemPager pager;
  BufferPool pool(&pager, 1u << 18);
  auto table = MaterializePointTable(&pool, points, tree->clustered_order());
  MDS_CHECK(table.ok());
  PointTableBinding binding = BindPointTable(&*table, kNumBands);

  // Intra-query scaling: one wide polyhedron query (~10% selectivity) so
  // the scan half dominates; the serial RangeScanner is the baseline.
  std::vector<double> center(kNumBands);
  {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    for (size_t j = 0; j < kNumBands; ++j) center[j] = mags[j];
  }
  const Polyhedron wide = Polyhedron::BallApproximation(center, 3.2, 24);

  KdTreePath warm(binding, *tree, wide);
  QueryStats serial_stats;
  WallTimer serial_timer;
  auto serial = ExecuteAccessPath(&warm, &serial_stats);
  MDS_CHECK(serial.ok());
  const double serial_ms = serial_timer.Millis();

  std::printf("\n-- intra-query: ParallelRangeScanner, %zu rows emitted --\n",
              serial->objids.size());
  std::printf("%-8s %-10s %-9s %-12s %-10s\n", "threads", "query_ms",
              "speedup", "pages_fetch", "pages_ok");
  std::printf("%-8s %-10.2f %-9.2f %-12llu %-10s\n", "serial", serial_ms, 1.0,
              (unsigned long long)serial_stats.pages_fetched, "baseline");
  bench::EmitJson(options, "intra_query_serial", points.size(), serial_ms,
                  serial_stats.pages_fetched);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    KdTreePath path(binding, *tree, wide);
    QueryStats stats;
    WallTimer timer;
    auto result = ExecuteAccessPathParallel(&path, threads, &stats);
    MDS_CHECK(result.ok());
    const double ms = timer.Millis();
    MDS_CHECK(result->objids == serial->objids);
    // Acceptance bound: pages fetched within 1% of serial (exact equality
    // is the design contract at limit == 0; 1% is the allowed slack).
    const double page_drift =
        serial_stats.pages_fetched == 0
            ? 0.0
            : std::abs(static_cast<double>(stats.pages_fetched) -
                       static_cast<double>(serial_stats.pages_fetched)) /
                  static_cast<double>(serial_stats.pages_fetched);
    MDS_CHECK(page_drift <= 0.01);
    std::printf("%-8u %-10.2f %-9.2f %-12llu %-10s\n", threads, ms,
                serial_ms / ms, (unsigned long long)stats.pages_fetched,
                stats.pages_fetched == serial_stats.pages_fetched
                    ? "exact"
                    : "within-1%");
    char name[32];
    std::snprintf(name, sizeof(name), "intra_query_t%u", threads);
    bench::EmitJson(options, name, points.size(), ms, stats.pages_fetched);
  }

  // Inter-query scaling: a batch of mixed-selectivity queries; the serial
  // loop is the baseline, ExecuteBatch fans out over the shared pool.
  const size_t batch_size = options.quick ? 16 : 32;
  const auto queries = MakeQueryBatch(batch_size);

  std::vector<std::vector<int64_t>> expected;
  std::vector<uint64_t> expected_pages;
  bench::LatencyRecorder per_query;
  WallTimer loop_timer;
  for (const Polyhedron& poly : queries) {
    KdTreePath path(binding, *tree, poly);
    QueryStats stats;
    WallTimer query_timer;
    auto result = ExecuteAccessPath(&path, &stats);
    per_query.RecordMillis(query_timer.Millis());
    MDS_CHECK(result.ok());
    expected.push_back(std::move(result->objids));
    expected_pages.push_back(stats.pages_fetched);
  }
  const double loop_ms = loop_timer.Millis();

  std::printf("\n-- inter-query: ExecuteBatch, %zu queries --\n", batch_size);
  bench::PrintLatency("per-query (serial)", per_query.Take());
  bench::EmitJsonLatency(options, "batch_query_latency", per_query.Take(),
                         1000.0 * static_cast<double>(batch_size) / loop_ms);
  std::printf("%-8s %-10s %-9s\n", "threads", "batch_ms", "speedup");
  std::printf("%-8s %-10.1f %-9.2f\n", "serial", loop_ms, 1.0);
  bench::EmitJson(options, "batch_serial", batch_size, loop_ms, 0);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::unique_ptr<AccessPath>> paths;
    for (const Polyhedron& poly : queries) {
      paths.push_back(std::make_unique<KdTreePath>(binding, *tree, poly));
    }
    QueryEngine::BatchOptions batch_options;
    batch_options.num_threads = threads;
    WallTimer timer;
    auto results = QueryEngine::ExecuteBatch(std::move(paths), batch_options);
    const double ms = timer.Millis();
    MDS_CHECK(results.size() == queries.size());
    for (size_t q = 0; q < results.size(); ++q) {
      MDS_CHECK(results[q].ok());
      MDS_CHECK(results[q]->objids == expected[q]);
    }
    std::printf("%-8u %-10.1f %-9.2f\n", threads, ms, loop_ms / ms);
    char name[32];
    std::snprintf(name, sizeof(name), "batch_t%u", threads);
    bench::EmitJson(options, name, batch_size, ms, 0);
  }

  // Spill: the same batch over a cold pool of 1/8 of the table, so misses,
  // CRC checks and eviction dominate. Each worker count starts from a
  // fresh pool; pages_fetched is counted per scanner, so it must still
  // equal the serial run's exactly while physical_reads varies with the
  // interleaving.
  MDS_CHECK(pool.FlushAll().ok());
  std::vector<PageId> page_ids;
  for (uint64_t p = 0; p < table->num_pages(); ++p) {
    page_ids.push_back(table->page_id(p));
  }
  const size_t spill_capacity =
      std::max<size_t>(1, static_cast<size_t>(table->num_pages() / 8));
  std::printf("\n-- spill: ExecuteBatch, %zu queries, pool %zu of %llu pages "
              "--\n",
              batch_size, spill_capacity,
              (unsigned long long)table->num_pages());
  std::printf("%-8s %-10s %-9s %-14s\n", "threads", "batch_ms", "speedup",
              "physical_reads");
  double spill_t1_ms = 0.0;
  for (unsigned threads : {1u, 2u, 4u}) {
    BufferPool spill_pool(&pager, spill_capacity);
    auto spill_table = Table::Attach(&spill_pool, table->schema(), page_ids,
                                     table->num_rows());
    MDS_CHECK(spill_table.ok());
    const PointTableBinding spill_binding =
        BindPointTable(&*spill_table, kNumBands);
    std::vector<std::unique_ptr<AccessPath>> paths;
    for (const Polyhedron& poly : queries) {
      paths.push_back(
          std::make_unique<KdTreePath>(spill_binding, *tree, poly));
    }
    QueryEngine::BatchOptions batch_options;
    batch_options.num_threads = threads;
    std::vector<QueryStats> stats;
    WallTimer timer;
    auto results =
        QueryEngine::ExecuteBatch(std::move(paths), batch_options, &stats);
    const double ms = timer.Millis();
    MDS_CHECK(results.size() == queries.size());
    MDS_CHECK(stats.size() == queries.size());
    for (size_t q = 0; q < results.size(); ++q) {
      MDS_CHECK(results[q].ok());
      MDS_CHECK(results[q]->objids == expected[q]);
      MDS_CHECK(stats[q].pages_fetched == expected_pages[q]);
    }
    if (threads == 1) spill_t1_ms = ms;
    const uint64_t physical_reads = spill_pool.stats().physical_reads;
    std::printf("%-8u %-10.1f %-9.2f %-14llu\n", threads, ms,
                spill_t1_ms / ms, (unsigned long long)physical_reads);
    char name[32];
    std::snprintf(name, sizeof(name), "spill_batch_t%u", threads);
    bench::EmitJson(options, name, batch_size, ms, physical_reads);
  }
}

}  // namespace
}  // namespace mds

int main(int argc, char** argv) {
  mds::Run(mds::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
