#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "core/access_path.h"
#include "core/simd_dist.h"
#include "core/point_table.h"
#include "core/query_planner.h"
#include "sdss/catalog.h"
#include "storage/pager.h"

namespace mds {
namespace {

/// Shared 10^5-point seeded catalog plus the four differently-clustered
/// tables, built once for the whole suite.
class AccessPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig config;
    config.num_objects = 100000;
    config.seed = 2007;
    catalog_ = new Catalog(GenerateCatalog(config));
    const PointSet& points = catalog_->colors;

    pager_ = new MemPager();
    pool_ = new BufferPool(pager_, 1u << 16);

    kd_index_ = new KdTreeIndex(KdTreeIndex::Build(&points).MoveValue());
    grid_index_ =
        new LayeredGridIndex(LayeredGridIndex::Build(&points).MoveValue());
    VoronoiIndexConfig vc;
    vc.num_seeds = 256;
    voronoi_index_ =
        new VoronoiIndex(VoronoiIndex::Build(&points, vc).MoveValue());

    heap_table_ = new Table(
        MaterializePointTable(pool_, points, {}).MoveValue());
    kd_table_ = new Table(
        MaterializePointTable(pool_, points, kd_index_->clustered_order())
            .MoveValue());
    grid_table_ = new Table(
        MaterializePointTable(pool_, points, grid_index_->clustered_order())
            .MoveValue());
    voronoi_table_ = new Table(
        MaterializePointTable(pool_, points,
                              voronoi_index_->clustered_order())
            .MoveValue());
  }

  static void TearDownTestSuite() {
    delete voronoi_table_;
    delete grid_table_;
    delete kd_table_;
    delete heap_table_;
    delete voronoi_index_;
    delete grid_index_;
    delete kd_index_;
    delete pool_;
    delete pager_;
    delete catalog_;
  }

  static std::vector<int64_t> SortedIds(const StorageQueryResult& result) {
    std::vector<int64_t> ids = result.objids;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  static std::vector<int64_t> BruteForce(const Polyhedron& poly) {
    std::vector<int64_t> out;
    const PointSet& points = catalog_->colors;
    for (uint64_t i = 0; i < points.size(); ++i) {
      if (poly.Contains(points.point(i))) {
        out.push_back(static_cast<int64_t>(i));
      }
    }
    return out;
  }

  /// A color-space box around the stellar locus holding a few thousand
  /// points — selective but well populated.
  static Box LocusBox(double half_width) {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    std::vector<double> lo(kNumBands), hi(kNumBands);
    for (size_t j = 0; j < kNumBands; ++j) {
      lo[j] = mags[j] - half_width;
      hi[j] = mags[j] + half_width;
    }
    return Box(lo, hi);
  }

  static Catalog* catalog_;
  static MemPager* pager_;
  static BufferPool* pool_;
  static KdTreeIndex* kd_index_;
  static LayeredGridIndex* grid_index_;
  static VoronoiIndex* voronoi_index_;
  static Table* heap_table_;
  static Table* kd_table_;
  static Table* grid_table_;
  static Table* voronoi_table_;
};

Catalog* AccessPathTest::catalog_ = nullptr;
MemPager* AccessPathTest::pager_ = nullptr;
BufferPool* AccessPathTest::pool_ = nullptr;
KdTreeIndex* AccessPathTest::kd_index_ = nullptr;
LayeredGridIndex* AccessPathTest::grid_index_ = nullptr;
VoronoiIndex* AccessPathTest::voronoi_index_ = nullptr;
Table* AccessPathTest::heap_table_ = nullptr;
Table* AccessPathTest::kd_table_ = nullptr;
Table* AccessPathTest::grid_table_ = nullptr;
Table* AccessPathTest::voronoi_table_ = nullptr;

TEST_F(AccessPathTest, AllPathsReturnIdenticalObjidSet) {
  // One region expressed both ways: a box for the grid path, the
  // equivalent polyhedron for the other three.
  const Box box = LocusBox(0.8);
  const Polyhedron poly = Polyhedron::FromBox(box);
  const std::vector<int64_t> truth = BruteForce(poly);
  ASSERT_GT(truth.size(), 1000u);
  ASSERT_LT(truth.size(), catalog_->size() / 2);

  FullScanPath scan(BindPointTable(heap_table_, kNumBands), poly);
  KdTreePath kd(BindPointTable(kd_table_, kNumBands), *kd_index_, poly);
  // n beyond the population: the sample query degenerates to "all points
  // of the box", making it set-comparable with the exact paths.
  GridSamplePath grid(BindPointTable(grid_table_, kNumBands), *grid_index_,
                      box, catalog_->size());
  VoronoiPath voronoi(BindPointTable(voronoi_table_, kNumBands),
                      *voronoi_index_, poly);

  AccessPath* paths[] = {&scan, &kd, &grid, &voronoi};
  for (AccessPath* path : paths) {
    QueryStats stats;
    auto result = ExecuteAccessPath(path, &stats);
    ASSERT_TRUE(result.ok()) << path->name();
    EXPECT_EQ(SortedIds(*result), truth) << path->name();
    // Unified instrumentation invariants: every emitted row was scanned,
    // untested rows can only come from `full` ranges, and the result size
    // matches the emitted counter.
    EXPECT_EQ(stats.rows_emitted, result->objids.size()) << path->name();
    EXPECT_LE(stats.rows_tested, stats.rows_scanned) << path->name();
    EXPECT_GE(stats.rows_emitted, stats.rows_scanned - stats.rows_tested)
        << path->name();
  }
}

TEST_F(AccessPathTest, FullRangesNeverRequirePerRowTests) {
  const Box box = LocusBox(1.2);
  const Polyhedron poly = Polyhedron::FromBox(box);
  // The grid's coarse cells span a quarter of the data range per axis, so
  // give its box most of the space — narrower boxes legitimately contain
  // no whole cell in 5-D.
  const Box grid_bounds = grid_index_->bounding_box();
  std::vector<double> glo(kNumBands), ghi(kNumBands);
  for (size_t j = 0; j < kNumBands; ++j) {
    const double center = 0.5 * (grid_bounds.lo(j) + grid_bounds.hi(j));
    const double half = 0.40 * (grid_bounds.hi(j) - grid_bounds.lo(j));
    glo[j] = center - half;
    ghi[j] = center + half;
  }
  const Box grid_box(glo, ghi);

  // Drive fresh plans step by step and check the ground truth directly:
  // every row inside a `full`-tagged range must satisfy the predicate, so
  // emitting it without a test is sound.
  KdTreePath kd(BindPointTable(kd_table_, kNumBands), *kd_index_, poly);
  GridSamplePath grid(BindPointTable(grid_table_, kNumBands), *grid_index_,
                      grid_box, catalog_->size());
  VoronoiPath voronoi(BindPointTable(voronoi_table_, kNumBands),
                      *voronoi_index_, poly);

  struct Case {
    AccessPath* path;
    const Table* table;
  };
  Case cases[] = {{&kd, kd_table_}, {&grid, grid_table_},
                  {&voronoi, voronoi_table_}};
  for (auto& [path, table] : cases) {
    QueryStats stats;
    PlanStep step;
    uint64_t full_ranges = 0;
    while (path->NextStep(&stats, &step)) {
      for (const RowRange& range : step.ranges) {
        if (range.kind != RangeKind::kFull) continue;
        ++full_ranges;
        float coords[kNumBands];
        auto status = table->ScanRange(
            range.begin, range.end, [&](uint64_t, RowRef ref) {
              ref.GetFloat32Span(1, kNumBands, coords);
              EXPECT_TRUE(path->predicate().Matches(coords)) << path->name();
            });
        ASSERT_TRUE(status.ok());
      }
      // Keep the adaptive paths walking: pretend nothing was found so the
      // grid visits every layer.
    }
    EXPECT_GT(full_ranges, 0u) << path->name()
                               << ": expected some full ranges on a wide box";
  }
}

TEST_F(AccessPathTest, StatsSeparateTestedFromUntestedRows) {
  const Box box = LocusBox(1.2);
  const Polyhedron poly = Polyhedron::FromBox(box);
  KdTreePath kd(BindPointTable(kd_table_, kNumBands), *kd_index_, poly);
  QueryStats stats;
  auto result = ExecuteAccessPath(&kd, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(stats.ranges_full, 0u);
  // Rows from full ranges are never tested and always emitted: the
  // emitted count must equal untested rows plus tested rows that passed.
  const uint64_t untested = stats.rows_scanned - stats.rows_tested;
  EXPECT_GT(untested, 0u);
  EXPECT_GE(stats.rows_emitted, untested);
  EXPECT_EQ(stats.rows_emitted, result->objids.size());
  EXPECT_EQ(stats.cells_full, kd.plan_stats().leaves_full);
}

TEST_F(AccessPathTest, PlannerPicksKdForSelectiveAndScanForWholeSpace) {
  // Selective query: the kd plan touches a small fraction of the pages.
  const Polyhedron selective = Polyhedron::FromBox(LocusBox(0.4));
  {
    QueryPlanner planner;
    planner
        .AddPath(std::make_unique<FullScanPath>(
            BindPointTable(heap_table_, kNumBands), selective))
        .AddPath(std::make_unique<KdTreePath>(
            BindPointTable(kd_table_, kNumBands), *kd_index_, selective));
    auto best = planner.ChooseBest();
    ASSERT_TRUE(best.ok());
    EXPECT_STREQ(planner.path(*best).name(), "kd-tree");

    std::string chosen;
    QueryStats stats;
    auto result = planner.Execute(&stats, &chosen);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(chosen, "kd-tree");
    EXPECT_EQ(SortedIds(*result), BruteForce(selective));
    EXPECT_LT(stats.pages_fetched, kd_table_->num_pages() / 2);
  }

  // Whole-space query: every row qualifies, the index plan covers every
  // page anyway, and the planner must fall back to the plain scan.
  Box everything = Box::Bounding(catalog_->colors);
  everything.Inflate(1.0);
  const Polyhedron whole = Polyhedron::FromBox(everything);
  {
    QueryPlanner planner;
    planner
        .AddPath(std::make_unique<FullScanPath>(
            BindPointTable(heap_table_, kNumBands), whole))
        .AddPath(std::make_unique<KdTreePath>(
            BindPointTable(kd_table_, kNumBands), *kd_index_, whole));
    auto best = planner.ChooseBest();
    ASSERT_TRUE(best.ok());
    EXPECT_STREQ(planner.path(*best).name(), "full-scan");

    std::string chosen;
    auto result = planner.Execute(nullptr, &chosen);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(chosen, "full-scan");
    EXPECT_EQ(result->objids.size(), catalog_->size());
  }
}

TEST_F(AccessPathTest, PlannerRejectsInfeasibleOnlyPaths) {
  Polyhedron wrong_dim(2);
  QueryPlanner planner;
  planner.AddPath(std::make_unique<FullScanPath>(
      BindPointTable(heap_table_, kNumBands), wrong_dim));
  EXPECT_FALSE(planner.ChooseBest().ok());
}

TEST_F(AccessPathTest, TableSamplePathHonorsTopNLimit) {
  Rng rng(13);
  const Box everything = Box::Bounding(catalog_->colors);
  TableSamplePath path(BindPointTable(heap_table_, kNumBands), everything,
                       50.0, 100, &rng);
  QueryStats stats;
  auto result = ExecuteAccessPath(&path, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objids.size(), 100u);
  EXPECT_EQ(stats.rows_emitted, 100u);
  EXPECT_LT(stats.rows_scanned, catalog_->size());
}

/// Every QueryStats field, compared one by one.
void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.plan_steps, b.plan_steps) << what;
  EXPECT_EQ(a.ranges_full, b.ranges_full) << what;
  EXPECT_EQ(a.ranges_partial, b.ranges_partial) << what;
  EXPECT_EQ(a.cells_full, b.cells_full) << what;
  EXPECT_EQ(a.cells_partial, b.cells_partial) << what;
  EXPECT_EQ(a.cells_pruned, b.cells_pruned) << what;
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << what;
  EXPECT_EQ(a.rows_tested, b.rows_tested) << what;
  EXPECT_EQ(a.rows_emitted, b.rows_emitted) << what;
  EXPECT_EQ(a.pages_fetched, b.pages_fetched) << what;
  EXPECT_EQ(a.pages_read, b.pages_read) << what;
  EXPECT_EQ(a.pages_skipped, b.pages_skipped) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
}

/// Builds a fresh (single-use) path for one run; `rng` is reseeded per run
/// so a sampling path draws the same pages every time.
using PathFactory = std::function<std::unique_ptr<AccessPath>(Rng* rng)>;

/// Runs the path materializing and count-only, serially and through
/// ExecuteAccessPathParallel(..., 4): the count-only runs must report the
/// materializing run's row count with no objids and every counter equal.
/// Returns the serial materializing result for further checks.
StorageQueryResult ExpectCountOnlyParity(const PathFactory& make,
                                         RangeScanner::ScanOptions scan) {
  StorageQueryResult reference;
  for (const bool parallel : {false, true}) {
    StorageQueryResult result[2];
    QueryStats stats[2];
    std::string name;
    for (const bool count_only : {false, true}) {
      Rng rng(29);
      std::unique_ptr<AccessPath> path = make(&rng);
      name = path->name();
      scan.count_only = count_only;
      auto r = parallel ? ExecuteAccessPathParallel(path.get(), 4, scan,
                                                    &stats[count_only])
                        : ExecuteAccessPath(path.get(), scan,
                                            &stats[count_only]);
      EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      if (!r.ok()) return reference;
      result[count_only] = std::move(*r);
    }
    const std::string what =
        name + (parallel ? " parallel" : " serial");
    const StorageQueryResult& full = result[0];
    const StorageQueryResult& counted = result[1];
    EXPECT_EQ(full.row_count, full.objids.size()) << what;
    EXPECT_EQ(full.row_count, stats[0].rows_emitted) << what;
    EXPECT_EQ(counted.row_count, full.row_count) << what;
    EXPECT_TRUE(counted.objids.empty()) << what;
    EXPECT_EQ(counted.rows_scanned, full.rows_scanned) << what;
    EXPECT_EQ(counted.pages_fetched, full.pages_fetched) << what;
    EXPECT_EQ(counted.pages_read, full.pages_read) << what;
    EXPECT_EQ(counted.pages_skipped, full.pages_skipped) << what;
    EXPECT_EQ(counted.degraded, full.degraded) << what;
    ExpectSameStats(stats[0], stats[1], what);
    if (!parallel) reference = result[0];
  }
  return reference;
}

TEST_F(AccessPathTest, CountOnlyMatchesMaterializingOnEveryPath) {
  const Box box = LocusBox(0.8);
  const Polyhedron poly = Polyhedron::FromBox(box);
  double mags[kNumBands];
  StellarLocus(0.5, 0.0, mags);
  const Polyhedron ball = Polyhedron::BallApproximation(
      std::vector<double>(mags, mags + kNumBands), 0.9, 40);
  const Box everything = Box::Bounding(catalog_->colors);
  const PointTableBinding heap = BindPointTable(heap_table_, kNumBands);
  const PointTableBinding kd = BindPointTable(kd_table_, kNumBands);
  const PointTableBinding voronoi = BindPointTable(voronoi_table_, kNumBands);
  const RangeScanner::ScanOptions strict;

  const std::vector<PathFactory> cases = {
      [&](Rng*) { return std::make_unique<FullScanPath>(heap, box); },
      [&](Rng*) { return std::make_unique<FullScanPath>(heap, ball); },
      [&](Rng*) { return std::make_unique<KdTreePath>(kd, *kd_index_, poly); },
      [&](Rng*) { return std::make_unique<KdTreePath>(kd, *kd_index_, ball); },
      [&](Rng*) {
        return std::make_unique<VoronoiPath>(voronoi, *voronoi_index_, poly);
      },
      // TOP(n): the scan stops on the row that reaches the limit, in both
      // modes.
      [&](Rng* rng) {
        return std::make_unique<TableSamplePath>(heap, everything, 50.0, 777,
                                                 rng);
      },
  };
  for (const PathFactory& make : cases) {
    const StorageQueryResult r = ExpectCountOnlyParity(make, strict);
    EXPECT_GT(r.row_count, 0u);
  }
  // The polyhedron paths answer exactly, in both modes.
  EXPECT_EQ(ExpectCountOnlyParity(cases[2], strict).row_count,
            BruteForce(poly).size());
  EXPECT_EQ(ExpectCountOnlyParity(cases[1], strict).row_count,
            BruteForce(ball).size());
}

TEST_F(AccessPathTest, NonFiniteRowsKeepCountOnlyParityOnEveryTier) {
  // The catalog with NaN and +-inf coordinates written into some rows,
  // stored in the kd, Voronoi and heap orders of the (finite) indexes.
  // Partial ranges test these rows in place on the pinned page: the dense
  // reference decides them, and every tier must agree with the scalar one.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), kInf,
                            -kInf};
  PointSet tainted = catalog_->colors;
  uint64_t poisoned = 0;
  for (uint64_t i = 0; i < tainted.size(); i += 13) {
    float* row = tainted.mutable_point(i);
    if (i % 101 == 0) {
      for (size_t j = 0; j < kNumBands; ++j) row[j] = specials[i % 3];
    } else {
      row[(i / 13) % kNumBands] = specials[(i / 13) % 3];
    }
    ++poisoned;
  }
  ASSERT_GT(poisoned, 7000u);
  MemPager pager;
  BufferPool pool(&pager, 1u << 14);
  Table heap =
      MaterializePointTable(&pool, tainted, {}).MoveValue();
  Table kd = MaterializePointTable(&pool, tainted,
                                   kd_index_->clustered_order())
                 .MoveValue();
  Table voronoi = MaterializePointTable(&pool, tainted,
                                        voronoi_index_->clustered_order())
                      .MoveValue();
  const PointTableBinding heap_binding = BindPointTable(&heap, kNumBands);
  const PointTableBinding kd_binding = BindPointTable(&kd, kNumBands);
  const PointTableBinding voronoi_binding =
      BindPointTable(&voronoi, kNumBands);

  const Box box = LocusBox(0.8);
  const Polyhedron poly = Polyhedron::FromBox(box);
  double mags[kNumBands];
  StellarLocus(0.5, 0.0, mags);
  const Polyhedron ball = Polyhedron::BallApproximation(
      std::vector<double>(mags, mags + kNumBands), 0.9, 40);
  const std::vector<PathFactory> cases = {
      [&](Rng*) { return std::make_unique<FullScanPath>(heap_binding, box); },
      [&](Rng*) { return std::make_unique<FullScanPath>(heap_binding, poly); },
      [&](Rng*) { return std::make_unique<FullScanPath>(heap_binding, ball); },
      [&](Rng* rng) {
        return std::make_unique<TableSamplePath>(heap_binding, box, 100.0, 0,
                                                 rng);
      },
      [&](Rng*) {
        return std::make_unique<KdTreePath>(kd_binding, *kd_index_, poly);
      },
      [&](Rng*) {
        return std::make_unique<KdTreePath>(kd_binding, *kd_index_, ball);
      },
      [&](Rng*) {
        return std::make_unique<VoronoiPath>(voronoi_binding, *voronoi_index_,
                                             poly);
      },
  };

  // Full scans (and a 100% TABLESAMPLE) test every row, so they must
  // equal the brute-force answers over the tainted rows. A box means its
  // FromBox polyhedron, so the box scans reject non-finite coordinates
  // as the polyhedron does (Polyhedron::Contains).
  std::vector<int64_t> poly_truth, ball_truth;
  for (uint64_t i = 0; i < tainted.size(); ++i) {
    const float* p = tainted.point(i);
    if (poly.Contains(p)) poly_truth.push_back(static_cast<int64_t>(i));
    if (ball.Contains(p)) ball_truth.push_back(static_cast<int64_t>(i));
  }

  const SimdTier startup = ActiveSimdTier();
  std::vector<StorageQueryResult> scalar_results;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    if (tier > startup) break;
    SetSimdTierForTest(tier);
    std::vector<StorageQueryResult> results;
    for (const PathFactory& make : cases) {
      results.push_back(
          ExpectCountOnlyParity(make, RangeScanner::ScanOptions{}));
      EXPECT_GT(results.back().row_count, 0u);
    }
    EXPECT_EQ(SortedIds(results[0]), poly_truth) << SimdTierName(tier);
    EXPECT_EQ(SortedIds(results[1]), poly_truth) << SimdTierName(tier);
    EXPECT_EQ(SortedIds(results[2]), ball_truth) << SimdTierName(tier);
    EXPECT_EQ(SortedIds(results[3]), poly_truth) << SimdTierName(tier);
    if (tier == SimdTier::kScalar) {
      scalar_results = results;
      continue;
    }
    for (size_t c = 0; c < results.size(); ++c) {
      EXPECT_EQ(results[c].objids, scalar_results[c].objids)
          << "case " << c << " tier " << SimdTierName(tier);
      EXPECT_EQ(results[c].rows_scanned, scalar_results[c].rows_scanned)
          << "case " << c << " tier " << SimdTierName(tier);
      EXPECT_EQ(results[c].pages_fetched, scalar_results[c].pages_fetched)
          << "case " << c << " tier " << SimdTierName(tier);
    }
  }
  SetSimdTierForTest(startup);
}

TEST_F(AccessPathTest, CountOnlyMatchesMaterializingOverCorruptPages) {
  // The kd-clustered table written through torn writes: some pages fail
  // their checksum on every read, deterministically, so skip mode drops
  // the same pages in every run.
  MemPager base;
  FaultConfig faults;
  faults.seed = 5;
  faults.p_torn_write = 0.05;
  FaultInjectionPager torn(&base, faults);
  std::vector<PageId> page_ids;
  uint64_t num_rows = 0;
  {
    BufferPool pool(&torn, 64);
    auto table = MaterializePointTable(&pool, catalog_->colors,
                                       kd_index_->clustered_order());
    ASSERT_TRUE(table.ok());
    num_rows = table->num_rows();
    for (uint64_t p = 0; p < table->num_pages(); ++p) {
      page_ids.push_back(table->page_id(p));
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  ASSERT_GT(torn.stats().torn_writes, 0u);

  const Box box = LocusBox(1.2);
  const Polyhedron poly = Polyhedron::FromBox(box);
  // A fresh pool per run: quarantine is per pool, and every run must pay
  // the same physical reads.
  std::vector<std::unique_ptr<BufferPool>> pools;
  std::vector<std::unique_ptr<Table>> tables;
  auto attach = [&]() -> PointTableBinding {
    pools.push_back(std::make_unique<BufferPool>(&base, 1024));
    auto table = Table::Attach(pools.back().get(), PointTableSchema(kNumBands),
                               page_ids, num_rows);
    MDS_CHECK(table.ok());
    tables.push_back(std::make_unique<Table>(std::move(*table)));
    return BindPointTable(tables.back().get(), kNumBands);
  };
  RangeScanner::ScanOptions skip;
  skip.skip_corrupt_pages = true;
  const StorageQueryResult scanned = ExpectCountOnlyParity(
      [&](Rng*) { return std::make_unique<FullScanPath>(attach(), box); },
      skip);
  const StorageQueryResult planned = ExpectCountOnlyParity(
      [&](Rng*) {
        return std::make_unique<KdTreePath>(attach(), *kd_index_, poly);
      },
      skip);
  EXPECT_TRUE(scanned.degraded);
  EXPECT_GT(scanned.pages_skipped, 0u);
  EXPECT_GT(planned.row_count, 0u);
  EXPECT_GT(planned.pages_read, 0u);
}

}  // namespace
}  // namespace mds
