#ifndef MDS_CORE_ACCESS_PATH_H_
#define MDS_CORE_ACCESS_PATH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/kdtree.h"
#include "core/layered_grid.h"
#include "core/voronoi_index.h"
#include "geom/predicate.h"
#include "storage/range_scanner.h"
#include "storage/table.h"

namespace mds {

/// Binds a stored point table to the query engine: which column carries
/// the original object id and where the coordinate columns start.
struct PointTableBinding {
  const Table* table = nullptr;
  size_t objid_col = 0;
  size_t first_coord_col = 1;
  size_t dim = 0;
};

/// I/O-level result of a storage-backed query.
struct StorageQueryResult {
  std::vector<int64_t> objids;  ///< empty for a count-only execution
  uint64_t row_count = 0;       ///< qualifying rows, in both modes
  uint64_t rows_scanned = 0;
  uint64_t pages_read = 0;     ///< physical page reads during the query
  uint64_t pages_fetched = 0;  ///< logical page fetches (hits + misses)

  /// Degradation contract: when `degraded` is true the result is an
  /// explicitly partial answer — `pages_skipped` clustered pages failed
  /// checksum verification and their rows are absent. A non-degraded
  /// result is complete (or the query returned a non-OK Status instead).
  uint64_t pages_skipped = 0;
  bool degraded = false;
};

/// Cost of one access path for one query, estimated from index metadata
/// only (node counts, cell directories, table page counts) — no row is
/// touched while estimating.
struct CostEstimate {
  double page_fetches = 0;  ///< expected logical page fetches
  double ranges = 0;        ///< discontiguous ranges (seek-equivalents)
  double planning = 0;      ///< index metadata units examined while planning
  bool feasible = true;     ///< false: this path cannot answer the query

  /// Comparison scalar: pages dominate, each discontiguous range costs
  /// about half a page of seek overhead, and planning work breaks ties —
  /// so a full scan beats an index plan that would touch every page
  /// anyway (the paper's returned/total ~ 0.25 crossover, Figure 5).
  double Total() const {
    return page_fetches + 0.5 * ranges + 1e-3 * planning;
  }
};

/// One way of executing a spatial query against a stored point table.
///
/// An access path is a per-query object: it is constructed from (binding,
/// index, query), can estimate its cost from index metadata, and emits its
/// physical plan as a sequence of PlanSteps of tagged row ranges that the
/// shared RangeScanner executes. Paths never touch pages themselves — all
/// physical I/O happens in the scanner, which is what makes per-query
/// instrumentation uniform across every index.
///
/// The referenced table, index and query must outlive the path. A path is
/// single-use: once NextStep has returned false it is exhausted.
class AccessPath {
 public:
  virtual ~AccessPath() = default;

  /// Display name ("full-scan", "kd-tree", ...).
  virtual const char* name() const = 0;

  /// Checks the binding/query combination before any page is touched.
  virtual Status Validate() const;

  /// Metadata-only cost estimate, used by QueryPlanner.
  virtual CostEstimate Estimate() const = 0;

  /// Emits the next batch of candidate ranges into `step` (cleared first).
  /// Returns false when the plan is exhausted. `stats` carries progress
  /// from prior steps (rows_emitted lets adaptive paths stop early) and
  /// receives this step's planning counters.
  virtual bool NextStep(QueryStats* stats, PlanStep* step) = 0;

  const PointTableBinding& binding() const { return binding_; }
  const PolyhedronPredicate& predicate() const { return *predicate_; }

  /// TOP(n) row limit; 0 means unlimited.
  virtual uint64_t limit() const { return 0; }

 protected:
  AccessPath(const PointTableBinding& binding,
             const PolyhedronPredicate* predicate)
      : binding_(binding), predicate_(predicate) {}

  double TablePages() const {
    return static_cast<double>(binding_.table->num_pages());
  }
  double PagesSpanned(uint64_t rows) const;

  PointTableBinding binding_;
  const PolyhedronPredicate* predicate_;
};

/// The paper's "simple SQL query" baseline: one partial range covering the
/// whole table.
class FullScanPath final : public AccessPath {
 public:
  FullScanPath(const PointTableBinding& binding, const Polyhedron& query);
  /// Filters with Polyhedron::FromBox(query), built once here.
  FullScanPath(const PointTableBinding& binding, const Box& query);

  const char* name() const override { return "full-scan"; }
  CostEstimate Estimate() const override;
  bool NextStep(QueryStats* stats, PlanStep* step) override;

 private:
  Polyhedron box_polyhedron_;  ///< the Box constructor's FromBox
  PolyhedronPredicate polyhedron_predicate_;
  bool done_ = false;
};

/// §3.2: fully-contained subtrees become `full` BETWEEN ranges over the
/// leaf-clustered row order; straddling leaves become `partial` ranges.
class KdTreePath final : public AccessPath {
 public:
  KdTreePath(const PointTableBinding& binding, const KdTreeIndex& index,
             const Polyhedron& query);

  const char* name() const override { return "kd-tree"; }
  CostEstimate Estimate() const override;
  bool NextStep(QueryStats* stats, PlanStep* step) override;

  const KdQueryStats& plan_stats() const { return plan_stats_; }

 private:
  PolyhedronPredicate polyhedron_predicate_;
  std::vector<RowRange> ranges_;  // disjoint, ascending by row position
  KdQueryStats plan_stats_;
  uint64_t candidate_rows_ = 0;
  bool done_ = false;
};

/// §3.1 sample query: one step per layer, coarse to fine; cells wholly
/// inside the query box are emitted as `full` ranges, straddling cells as
/// `partial`. The walk halts at the end of the first layer where at least
/// n rows have been emitted (the paper's "at least n points" semantics).
class GridSamplePath final : public AccessPath {
 public:
  GridSamplePath(const PointTableBinding& binding,
                 const LayeredGridIndex& index, const Box& query, uint64_t n);

  const char* name() const override { return "layered-grid"; }
  CostEstimate Estimate() const override;
  bool NextStep(QueryStats* stats, PlanStep* step) override;

 private:
  /// Bounding box of cell `cell` of layer `l`, shrunk by a hair so the
  /// `full` classification stays conservative under float rounding.
  Box CellBox(uint32_t l, int64_t cell) const;

  Polyhedron box_polyhedron_;  ///< FromBox(query), the filter and classifier
  PolyhedronPredicate polyhedron_predicate_;
  const LayeredGridIndex* index_;
  const Box* query_;
  uint64_t n_;
  uint32_t next_layer_ = 0;
  std::vector<LayeredGridIndex::CellRange> cell_scratch_;
};

/// §3.4: Voronoi cells classified inside / outside / partial from their
/// tight bounding boxes; inside cells are `full` tag ranges.
class VoronoiPath final : public AccessPath {
 public:
  VoronoiPath(const PointTableBinding& binding, const VoronoiIndex& index,
              const Polyhedron& query);

  const char* name() const override { return "voronoi"; }
  CostEstimate Estimate() const override;
  bool NextStep(QueryStats* stats, PlanStep* step) override;

 private:
  void Classify();

  PolyhedronPredicate polyhedron_predicate_;
  const VoronoiIndex* index_;
  std::vector<RowRange> ranges_;
  uint64_t cells_full_ = 0;
  uint64_t cells_partial_ = 0;
  uint64_t cells_pruned_ = 0;
  uint64_t candidate_rows_ = 0;
  bool classified_ = false;
  bool done_ = false;
};

/// The E3 baseline: TABLESAMPLE SYSTEM(percent) + TOP(n). Pages are drawn
/// lazily (one step per sampled page) so the RNG consumption matches the
/// SQL semantics of stopping the sample at the TOP(n) mark.
class TableSamplePath final : public AccessPath {
 public:
  TableSamplePath(const PointTableBinding& binding, const Box& query,
                  double percent, uint64_t n, Rng* rng);

  const char* name() const override { return "tablesample"; }
  Status Validate() const override;
  CostEstimate Estimate() const override;
  bool NextStep(QueryStats* stats, PlanStep* step) override;
  uint64_t limit() const override { return n_; }

 private:
  Polyhedron box_polyhedron_;  ///< FromBox(query), the filter
  PolyhedronPredicate polyhedron_predicate_;
  const Box* query_;
  double percent_;
  uint64_t n_;
  Rng* rng_;
  uint64_t next_page_ = 0;
};

/// Runs an access path to completion through a RangeScanner over the
/// path's bound table. Fills `stats` (optional) with the unified per-query
/// instrumentation, including the scanner's page-fetch accounting.
/// Thread-compatible: many calls may run concurrently (each builds its own
/// scanner) as long as each call owns its path object.
Result<StorageQueryResult> ExecuteAccessPath(AccessPath* path,
                                             QueryStats* stats = nullptr);

/// As above with an explicit scan policy: pass
/// ScanOptions{.skip_corrupt_pages = true} to turn checksum failures into
/// a degraded (partial, flagged) result instead of a kCorruption error,
/// and ScanOptions{.count_only = true} to get only row_count (objids
/// stay empty; every counter is as in a materializing run).
Result<StorageQueryResult> ExecuteAccessPath(
    AccessPath* path, const RangeScanner::ScanOptions& scan_options,
    QueryStats* stats = nullptr);

/// Intra-query parallel variant: executes the same plan through a
/// ParallelRangeScanner, which splits each PlanStep's row ranges across
/// `num_threads` workers (0 = MDS_QUERY_THREADS / hardware_concurrency).
/// Returns the identical result set and, for limit-free paths, identical
/// QueryStats to ExecuteAccessPath — see ParallelRangeScanner for the
/// merge contract.
Result<StorageQueryResult> ExecuteAccessPathParallel(
    AccessPath* path, unsigned num_threads, QueryStats* stats = nullptr);

/// Parallel variant with an explicit scan policy.
Result<StorageQueryResult> ExecuteAccessPathParallel(
    AccessPath* path, unsigned num_threads,
    const RangeScanner::ScanOptions& scan_options, QueryStats* stats = nullptr);

}  // namespace mds

#endif  // MDS_CORE_ACCESS_PATH_H_
