// Concurrency suite: the thread-safe BufferPool, the ParallelRangeScanner
// merge contract, QueryEngine::ExecuteBatch and the parallel kd-tree build.
// Every test asserts bit-equality against the serial execution — parallel
// query execution must be an invisible optimization. Runs under TSan in CI
// (MDS_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/access_path.h"
#include "core/point_table.h"
#include "core/query_engine.h"
#include "gated_pager.h"
#include "sdss/catalog.h"
#include "storage/pager.h"

namespace mds {
namespace {

/// Shared seeded catalog plus a kd-clustered stored table over a pool
/// large enough to hold it, built once for the whole suite.
class ConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig config;
    config.num_objects = 60000;
    config.seed = 2007;
    catalog_ = new Catalog(GenerateCatalog(config));
    const PointSet& points = catalog_->colors;

    KdTreeConfig tree_config;
    tree_config.build_threads = 1;  // serial reference build
    kd_index_ = new KdTreeIndex(
        KdTreeIndex::Build(&points, tree_config).MoveValue());

    pager_ = new MemPager();
    pool_ = new BufferPool(pager_, 1u << 16);
    kd_table_ = new Table(
        MaterializePointTable(pool_, points, kd_index_->clustered_order())
            .MoveValue());
  }

  static void TearDownTestSuite() {
    delete kd_table_;
    delete pool_;
    delete pager_;
    delete kd_index_;
    delete catalog_;
  }

  static PointTableBinding Binding() {
    return BindPointTable(kd_table_, kNumBands);
  }

  /// A family of ball queries of varying radius (and thus selectivity)
  /// centered at points along the stellar locus.
  static std::vector<Polyhedron> QueryMix(size_t count) {
    std::vector<Polyhedron> queries;
    queries.reserve(count);
    for (size_t q = 0; q < count; ++q) {
      double mags[kNumBands];
      StellarLocus(0.1 + 0.8 * static_cast<double>(q) / count, 0.0, mags);
      std::vector<double> center(mags, mags + kNumBands);
      // Radii cycle tiny (point-like lookup) to wide (range scan).
      const double radius = 0.05 * (1 << (q % 6));
      queries.push_back(Polyhedron::BallApproximation(center, radius, 12));
    }
    return queries;
  }

  static Catalog* catalog_;
  static MemPager* pager_;
  static BufferPool* pool_;
  static KdTreeIndex* kd_index_;
  static Table* kd_table_;
};

Catalog* ConcurrencyTest::catalog_ = nullptr;
MemPager* ConcurrencyTest::pager_ = nullptr;
BufferPool* ConcurrencyTest::pool_ = nullptr;
KdTreeIndex* ConcurrencyTest::kd_index_ = nullptr;
Table* ConcurrencyTest::kd_table_ = nullptr;

TEST_F(ConcurrencyTest, AutoShardingKeepsSmallPoolsSingleSharded) {
  MemPager pager;
  // Below 2 * kMinShardCapacity the pool must degrade to one shard —
  // that is what preserves the exact global-LRU semantics storage_test
  // asserts at capacities 1..4.
  EXPECT_EQ(BufferPool(&pager, 1).num_shards(), 1u);
  EXPECT_EQ(BufferPool(&pager, 127).num_shards(), 1u);
  // From there every doubling of per-shard headroom splits again, capped
  // at kMaxAutoShards.
  EXPECT_EQ(BufferPool(&pager, 128).num_shards(), 2u);
  EXPECT_EQ(BufferPool(&pager, 512).num_shards(), 8u);
  EXPECT_EQ(BufferPool(&pager, 1u << 20).num_shards(),
            BufferPool::kMaxAutoShards);
  // Explicit shard counts are honored (clamped to capacity).
  EXPECT_EQ(BufferPool(&pager, 64, 4).num_shards(), 4u);
  EXPECT_EQ(BufferPool(&pager, 2, 8).num_shards(), 2u);
}

TEST_F(ConcurrencyTest, ShardedPoolSurvivesConcurrentFetchHammer) {
  MemPager pager;
  const uint64_t kPages = 512;
  {
    BufferPool setup_pool(&pager, 4);
    for (uint64_t i = 0; i < kPages; ++i) {
      auto guard = setup_pool.Allocate();
      ASSERT_TRUE(guard.ok());
    }
    ASSERT_TRUE(setup_pool.FlushAll().ok());
  }
  BufferPool pool(&pager, 256);  // smaller than the page set: evictions
  ASSERT_GT(pool.num_shards(), 1u);

  const unsigned kThreads = 8;
  const uint64_t kFetchesPerThread = 4000;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (uint64_t i = 0; i < kFetchesPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const PageId id = (state >> 33) % kPages;
        bool physical = false;
        auto guard = pool.Fetch(id, &physical);
        if (!guard.ok() || guard->id() != id) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_LE(pool.resident(), pool.capacity());
  // Every fetch is accounted exactly once in the aggregated counters.
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.logical_reads, uint64_t{kThreads} * kFetchesPerThread);
  EXPECT_GT(stats.physical_reads, 0u);  // cold pool smaller than the data
  EXPECT_LE(stats.physical_reads, stats.logical_reads);
}

// --- Misses load outside the shard lock ------------------------------------
// GatedPager holds one page's read in flight. Every test opens the gate
// before it asserts or joins, so a regression fails instead of hanging.

constexpr auto kGateBound = std::chrono::seconds(10);

TEST(BufferPoolLoadTest, ConcurrentFetchersOfAColdPageReadItOnce) {
  MemPager base;
  ASSERT_TRUE(WriteStampedPages(&base, 4).ok());
  const PageId kCold = 2;
  GatedPager pager(&base, kCold);
  BufferPool pool(&pager, 8);

  constexpr int kThreads = 6;
  std::vector<int> physical(kThreads, -1);
  std::vector<Page> bytes(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool was_physical = false;
      auto guard = pool.Fetch(kCold, &was_physical);
      if (!guard.ok()) {
        failures.fetch_add(1);
        return;
      }
      physical[t] = was_physical ? 1 : 0;
      bytes[t] = guard->page();
    });
  }
  const bool blocked = pager.WaitUntilGatedReadBlocks(kGateBound);
  // Let the other fetchers queue behind the in-flight load. Any that come
  // later are plain hits, which every assertion below also allows.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pager.Open();
  for (auto& thread : threads) thread.join();

  ASSERT_TRUE(blocked);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pager.reads(), 1u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.physical_reads, 1u);
  EXPECT_EQ(stats.logical_reads, uint64_t{kThreads});
  EXPECT_EQ(stats.checksums_verified, 1u);
  EXPECT_EQ(std::count(physical.begin(), physical.end(), 1), 1);
  EXPECT_EQ(bytes[0].ReadAt<uint64_t>(0), 1000 + kCold);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(bytes[t].data == bytes[0].data) << "thread " << t;
  }
}

TEST(BufferPoolLoadTest, HitsProceedWhileAnotherPageLoads) {
  MemPager base;
  ASSERT_TRUE(WriteStampedPages(&base, 4).ok());
  const PageId kResident = 0, kGated = 1;
  GatedPager pager(&base, kGated);
  BufferPool pool(&pager, 8, /*shards=*/1);
  ASSERT_TRUE(pool.Fetch(kResident).ok());

  std::thread loader([&] { EXPECT_TRUE(pool.Fetch(kGated).ok()); });
  const bool blocked = pager.WaitUntilGatedReadBlocks(kGateBound);
  std::promise<bool> hit;
  std::future<bool> hit_done = hit.get_future();
  std::thread prober([&] {
    bool was_physical = true;
    auto guard = pool.Fetch(kResident, &was_physical);
    hit.set_value(guard.ok() && !was_physical &&
                  guard->page().ReadAt<uint64_t>(0) == 1000 + kResident);
  });
  const bool finished =
      hit_done.wait_for(kGateBound) == std::future_status::ready;
  pager.Open();
  prober.join();
  loader.join();

  ASSERT_TRUE(blocked);
  EXPECT_TRUE(finished) << "a hit waited for another page's read";
  EXPECT_TRUE(hit_done.get());
  EXPECT_EQ(pager.reads(), 2u);
}

TEST(BufferPoolLoadTest, LoadingFrameIsNeverEvicted) {
  MemPager base;
  ASSERT_TRUE(WriteStampedPages(&base, 2).ok());
  const PageId kGated = 0, kOther = 1;
  GatedPager pager(&base, kGated);
  BufferPool pool(&pager, 1);

  std::thread loader([&] {
    auto guard = pool.Fetch(kGated);
    EXPECT_TRUE(guard.ok());
    if (guard.ok()) {
      EXPECT_EQ(guard->page().ReadAt<uint64_t>(0), 1000 + kGated);
    }
  });
  const bool blocked = pager.WaitUntilGatedReadBlocks(kGateBound);
  std::promise<StatusCode> code;
  std::future<StatusCode> code_done = code.get_future();
  std::thread prober(
      [&] { code.set_value(pool.Fetch(kOther).status().code()); });
  const bool finished =
      code_done.wait_for(kGateBound) == std::future_status::ready;
  pager.Open();
  prober.join();
  loader.join();

  ASSERT_TRUE(blocked);
  ASSERT_TRUE(finished) << "a miss waited for another page's read";
  EXPECT_EQ(code_done.get(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pager.reads(), 1u);
  EXPECT_EQ(pool.resident(), 1u);
}

TEST_F(ConcurrencyTest, ParallelScannerMatchesSerialScanExactly) {
  const auto queries = QueryMix(6);
  for (const Polyhedron& poly : queries) {
    KdTreePath serial_path(Binding(), *kd_index_, poly);
    QueryStats serial_stats;
    auto serial = ExecuteAccessPath(&serial_path, &serial_stats);
    ASSERT_TRUE(serial.ok());

    for (unsigned threads : {2u, 4u}) {
      KdTreePath parallel_path(Binding(), *kd_index_, poly);
      QueryStats parallel_stats;
      auto parallel =
          ExecuteAccessPathParallel(&parallel_path, threads, &parallel_stats);
      ASSERT_TRUE(parallel.ok());
      // Same emitted sequence, not just the same set: page-aligned
      // partitions are concatenated in plan order.
      EXPECT_EQ(parallel->objids, serial->objids) << threads << " threads";
      // limit == 0: every row and page counter must merge to the serial
      // values exactly — the EXPERIMENTS.md page-table invariant.
      EXPECT_EQ(parallel_stats.rows_scanned, serial_stats.rows_scanned);
      EXPECT_EQ(parallel_stats.rows_tested, serial_stats.rows_tested);
      EXPECT_EQ(parallel_stats.rows_emitted, serial_stats.rows_emitted);
      EXPECT_EQ(parallel_stats.pages_fetched, serial_stats.pages_fetched);
      EXPECT_EQ(parallel_stats.ranges_full, serial_stats.ranges_full);
      EXPECT_EQ(parallel_stats.ranges_partial, serial_stats.ranges_partial);
    }
  }
}

TEST_F(ConcurrencyTest, ParallelFullScanHonorsRowLimit) {
  Box everything = Box::Bounding(catalog_->colors);
  everything.Inflate(1.0);
  const Polyhedron whole = Polyhedron::FromBox(everything);

  FullScanPath serial_path(Binding(), whole);
  auto serial = ExecuteAccessPath(&serial_path);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->objids.size(), catalog_->size());

  FullScanPath parallel_path(Binding(), whole);
  auto parallel = ExecuteAccessPathParallel(&parallel_path, 4);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->objids, serial->objids);
}

TEST_F(ConcurrencyTest, ExecuteBatchMatchesSerialWithExactCounterTotals) {
  const auto queries = QueryMix(24);

  // Serial reference: one query at a time, per-query stats kept.
  std::vector<std::vector<int64_t>> expected;
  std::vector<QueryStats> serial_stats(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    KdTreePath path(Binding(), *kd_index_, queries[q]);
    auto result = ExecuteAccessPath(&path, &serial_stats[q]);
    ASSERT_TRUE(result.ok());
    expected.push_back(std::move(result->objids));
  }

  // Concurrent run of the same batch over the shared pool.
  std::vector<std::unique_ptr<AccessPath>> paths;
  for (const Polyhedron& poly : queries) {
    paths.push_back(
        std::make_unique<KdTreePath>(Binding(), *kd_index_, poly));
  }
  const CounterSnapshot before = pool_->Snapshot();
  QueryEngine::BatchOptions options;
  options.num_threads = 4;
  std::vector<QueryStats> batch_stats;
  auto results =
      QueryEngine::ExecuteBatch(std::move(paths), options, &batch_stats);
  const CounterSnapshot::Delta delta = pool_->Delta(before);

  ASSERT_EQ(results.size(), queries.size());
  ASSERT_EQ(batch_stats.size(), queries.size());
  uint64_t sum_fetched = 0;
  uint64_t sum_read = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(results[q].ok()) << "query " << q;
    // Identical result sequence per query slot.
    EXPECT_EQ(results[q]->objids, expected[q]) << "query " << q;
    // Logical fetches are a property of the plan, not of the cache state,
    // so they match the serial run per query even under interleaving.
    EXPECT_EQ(batch_stats[q].pages_fetched, serial_stats[q].pages_fetched)
        << "query " << q;
    EXPECT_EQ(batch_stats[q].rows_scanned, serial_stats[q].rows_scanned)
        << "query " << q;
    sum_fetched += batch_stats[q].pages_fetched;
    sum_read += batch_stats[q].pages_read;
  }
  // Per-scanner attribution sums exactly to the pool-level delta: no
  // fetch is lost or double-counted across the worker pool.
  EXPECT_EQ(delta.logical_reads, sum_fetched);
  EXPECT_EQ(delta.physical_reads, sum_read);
}

TEST_F(ConcurrencyTest, MixedQueryHammerAgainstPrecomputedResults) {
  // N threads independently run the same mixed point/range query list
  // against the shared pool; every thread must see the serial answers.
  const auto queries = QueryMix(12);
  std::vector<std::vector<int64_t>> expected;
  for (const Polyhedron& poly : queries) {
    KdTreePath path(Binding(), *kd_index_, poly);
    auto result = ExecuteAccessPath(&path);
    ASSERT_TRUE(result.ok());
    expected.push_back(std::move(result->objids));
  }

  const unsigned kThreads = 8;
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          // Stagger the start point so threads collide on different pages.
          const size_t i = (q + t) % queries.size();
          KdTreePath path(Binding(), *kd_index_, queries[i]);
          auto result = ExecuteAccessPath(&path);
          if (!result.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          } else if (result->objids != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(ConcurrencyTest, ParallelKdBuildBitIdenticalToSerial) {
  const PointSet& points = catalog_->colors;
  for (bool max_spread : {false, true}) {
    KdTreeConfig serial_config;
    serial_config.build_threads = 1;
    serial_config.max_spread_split = max_spread;
    auto serial = KdTreeIndex::Build(&points, serial_config);
    ASSERT_TRUE(serial.ok());

    KdTreeConfig parallel_config = serial_config;
    parallel_config.build_threads = 4;
    auto parallel = KdTreeIndex::Build(&points, parallel_config);
    ASSERT_TRUE(parallel.ok());

    EXPECT_EQ(parallel->clustered_order(), serial->clustered_order())
        << "max_spread=" << max_spread;
    ASSERT_EQ(parallel->nodes().size(), serial->nodes().size());
    for (size_t i = 0; i < serial->nodes().size(); ++i) {
      const auto& a = parallel->nodes()[i];
      const auto& b = serial->nodes()[i];
      EXPECT_EQ(a.split_dim, b.split_dim) << "node " << i;
      EXPECT_EQ(a.split_value, b.split_value) << "node " << i;
      EXPECT_EQ(a.row_begin, b.row_begin) << "node " << i;
      EXPECT_EQ(a.row_end, b.row_end) << "node " << i;
      EXPECT_EQ(a.post_order, b.post_order) << "node " << i;
    }
  }
}

TEST_F(ConcurrencyTest, TaskPoolRunsEveryWorkerExactlyOnce) {
  TaskPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  for (int round = 0; round < 100; ++round) {
    pool.Run([&](unsigned worker) {
      hits[worker].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(hits[w].load(), 100) << "worker " << w;
  }

  // ParallelFor covers [0, n) exactly once for any grain.
  std::vector<std::atomic<int>> counts(1000);
  for (auto& c : counts) c.store(0);
  ParallelFor(&pool, counts.size(), 7,
              [&](uint64_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

/// Blocks until every task on the pool has reached it, or the bound
/// expires (a lost worker then fails the test instead of hanging it).
class Barrier {
 public:
  explicit Barrier(size_t parties) : parties_(parties) {}

  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == parties_) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return arrived_ >= parties_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t arrived_ = 0;
};

TEST(TaskPoolSubmitTest, EveryTaskFromEightThreadsRunsExactlyOnce) {
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 500;
  std::vector<std::atomic<int>> runs(kSubmitters * kPerSubmitter);
  for (auto& r : runs) r.store(0);
  {
    TaskPool pool(3);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&pool, &runs, t] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          const size_t slot = static_cast<size_t>(t * kPerSubmitter + i);
          pool.Submit([&runs, slot] {
            runs[slot].fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (auto& s : submitters) s.join();
  }  // the destructor runs whatever is still queued
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(TaskPoolSubmitTest, SingleThreadPoolNeverRunsInline) {
  TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ran_on.push_back(std::this_thread::get_id());
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return ran_on.size() == 16; }));
  for (const std::thread::id id : ran_on) {
    EXPECT_NE(id, caller);
    EXPECT_EQ(id, ran_on.front());  // one pool thread, in FIFO order
  }
}

TEST(TaskPoolSubmitTest, NBlockingTasksAllFinishOnNThreadPool) {
  // Run() counts its caller as worker 0; a task queue must not lose that
  // worker, or one of N mutually-waiting tasks never starts.
  for (unsigned n : {1u, 2u, 4u}) {
    Barrier barrier(n);
    std::atomic<unsigned> passed{0};
    {
      TaskPool pool(n);
      for (unsigned i = 0; i < n; ++i) {
        pool.Submit([&] {
          if (barrier.ArriveAndWait()) passed.fetch_add(1);
        });
      }
    }  // destruction joins after every task returned
    EXPECT_EQ(passed.load(), n) << "pool of " << n;
  }
}

TEST(TaskPoolSubmitTest, DestructorRunsTasksStillQueued) {
  // A losing hedge leg is queued behind live work and may still be queued
  // when its pool is torn down; it must run, not vanish.
  std::atomic<int> ran{0};
  {
    TaskPool pool(1);
    // The first task holds the only thread while the destructor starts,
    // so the other ten are still queued when it sets the stop flag.
    pool.Submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ran.fetch_add(1);
    });
    for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 11);
}

TEST(TaskPoolSubmitTest, TimedTasksWaitWithoutHoldingAThread) {
  using Clock = std::chrono::steady_clock;
  std::atomic<int> early{0};
  std::atomic<int> ran{0};
  std::atomic<bool> prompt{false};
  {
    TaskPool pool(1);
    const Clock::time_point start = Clock::now();
    // Submitted latest-first: they must still start in time order, each no
    // earlier than its time.
    for (int i = 3; i >= 0; --i) {
      const Clock::time_point when = start + std::chrono::milliseconds(20 * i);
      pool.SubmitAt(when, [&early, &ran, when, i] {
        if (Clock::now() < when || ran.load() != i) early.fetch_add(1);
        ran.fetch_add(1);
      });
    }
    // A far-future task holds no thread: an untimed task behind it runs
    // at once, and destruction runs the timed one early instead of waiting.
    pool.SubmitAt(start + std::chrono::hours(1), [&ran] { ran.fetch_add(1); });
    pool.Submit([&prompt] { prompt.store(true); });
    while ((ran.load() < 4 || !prompt.load()) &&
           Clock::now() - start < std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(prompt.load());
    EXPECT_EQ(ran.load(), 4);
  }
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(ran.load(), 5);
}

}  // namespace
}  // namespace mds
