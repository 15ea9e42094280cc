#ifndef MDS_STORAGE_RANGE_SCANNER_H_
#define MDS_STORAGE_RANGE_SCANNER_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "geom/predicate.h"
#include "storage/table.h"

namespace mds {

/// How a planned row range is to be consumed. This is the paper's central
/// distinction: ranges whose every row is known to qualify from index
/// metadata alone (`BETWEEN` over a fully-contained subtree / cell) are
/// emitted without touching the geometry; only `partial` ranges pay the
/// per-row predicate.
enum class RangeKind {
  kFull,     ///< emit every row, no per-row test
  kPartial,  ///< test each row against the query predicate
};

/// Half-open clustered row interval [begin, end) tagged with how to scan it.
struct RowRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  RangeKind kind = RangeKind::kPartial;
};

/// One batch of ranges an access path hands to the scanner. Adaptive paths
/// (grid layers, TABLESAMPLE pages) emit several steps and inspect
/// progress between them; single-shot paths emit everything in one step.
struct PlanStep {
  std::vector<RowRange> ranges;
};

/// Unified per-query counters shared by every access path — supersedes the
/// per-index KdQueryStats / GridQueryStats / VoronoiQueryStats plumbing on
/// the storage-backed path. Planning fields are filled by the access path,
/// row fields by the RangeScanner, page fields by the scanner's own fetch
/// accounting. `pages_fetched` vs rows_emitted is the paper's E2
/// "practically only points which are actually returned are read from
/// disk" measurement; rows_tested / rows_scanned is the Figure 5
/// full-vs-partial split.
struct QueryStats {
  // Planning (access-path) counters.
  uint64_t plan_steps = 0;      ///< batches executed (grid: layers visited)
  uint64_t ranges_full = 0;     ///< merged `full` ranges scanned
  uint64_t ranges_partial = 0;  ///< merged `partial` ranges scanned
  uint64_t cells_full = 0;      ///< index units wholly inside the query
  uint64_t cells_partial = 0;   ///< index units straddling the boundary
  uint64_t cells_pruned = 0;    ///< index units rejected from metadata only

  // Row-level (RangeScanner) counters.
  uint64_t rows_scanned = 0;  ///< rows decoded from candidate ranges
  uint64_t rows_tested = 0;   ///< rows run through the predicate (partial)
  uint64_t rows_emitted = 0;  ///< rows in the result set

  // Page-level I/O (per-scanner fetch accounting).
  uint64_t pages_fetched = 0;  ///< logical page fetches (hits + misses)
  uint64_t pages_read = 0;     ///< physical page reads

  // Degradation (checksum-failure fallback; see DESIGN.md "Failure
  // model"). A degraded result is explicitly partial: `pages_skipped`
  // pages failed verification and their rows are missing from the output.
  uint64_t pages_skipped = 0;  ///< quarantined pages skipped over
  bool degraded = false;       ///< true iff pages_skipped > 0 anywhere
};

/// Where a scan's qualifying rows go. A materializing scan appends their
/// objids in plan order; a count-only scan (ScanOptions::count_only) only
/// counts them. `rows` is the number of qualifying rows so far in both
/// modes, and the TOP(limit) mark is taken against it.
struct ScanOutput {
  std::vector<int64_t> objids;
  uint64_t rows = 0;
};

/// Sorts ranges by begin row and coalesces touching or overlapping ranges
/// of the same kind, so consecutive cell / leaf ranges sharing a page are
/// scanned in one pass. Ranges of different kinds are never merged.
void CoalesceRanges(std::vector<RowRange>* ranges);

/// Executes range plans against one stored point table through the buffer
/// pool — the single physical scan loop every access path shares. Pages
/// are pinned once each; the predicate tests a page's rows in one batch,
/// reading their coordinates where they sit in the pinned page.
///
/// I/O accounting: the scanner counts its own page fetches and misses
/// (via BufferPool::Fetch's physical-read report) rather than diffing
/// pool-wide counters, so per-query pages_fetched / pages_read stay exact
/// even while other queries run concurrently on the same pool — the
/// invariant behind the E2/E3 page-accounting tables.
///
/// Thread safety: thread-compatible. One scanner belongs to one thread
/// (it owns mutable scratch and counters); any number of scanners may
/// scan the same table through the same (thread-safe) BufferPool
/// concurrently. That is exactly how ParallelRangeScanner and
/// QueryEngine::ExecuteBatch parallelize: one private RangeScanner per
/// worker.
class RangeScanner {
 public:
  /// Column layout of the scanned table (a point table: one int64 objid
  /// column plus the predicate's dim() contiguous float32 coordinate
  /// columns).
  struct Layout {
    size_t objid_col = 0;
    size_t first_coord_col = 1;
  };

  /// Degradation policy. Strict (default) propagates a checksum failure
  /// as kCorruption and aborts the scan; skip mode drops the corrupt
  /// page's rows, counts it in QueryStats::pages_skipped and marks the
  /// result degraded — the explicit partial-answer contract.
  ///
  /// Count-only scans (a point count needs no objids) pin and account
  /// every page exactly as a materializing scan does, so every QueryStats
  /// counter is the same in both modes; they only skip decoding and
  /// copying objids. A `full` range adds its page's row count, a
  /// `partial` range sums its match mask.
  struct ScanOptions {
    bool skip_corrupt_pages = false;
    bool count_only = false;
  };

  RangeScanner(const Table* table, const Layout& layout);
  RangeScanner(const Table* table, const Layout& layout,
               const ScanOptions& options);

  /// Scans one plan step, adding qualifying rows to `out` and updating
  /// row counters in `stats`. `limit` (0 = none) stops the scan exactly
  /// when `out->rows` reaches `limit` — the TOP(n) clause.
  /// Single-threaded per scanner; see class comment.
  Status ScanStep(const PlanStep& step, const PolyhedronPredicate& predicate,
                  uint64_t limit, QueryStats* stats, ScanOutput* out);

  /// Adds the page fetches/misses this scanner performed since
  /// construction (or since the previous call) to `stats` and resets the
  /// internal tally. Must be called by the scanner's owning thread.
  void AccumulateIo(QueryStats* stats);

  const Table* table() const { return table_; }

 private:
  Status ScanRange(const RowRange& range, const PolyhedronPredicate& predicate,
                   uint64_t limit, QueryStats* stats, ScanOutput* out);

  const Table* table_;
  Layout layout_;
  ScanOptions options_;
  uint64_t pages_fetched_ = 0;  // this scanner's pins (logical fetches)
  uint64_t pages_read_ = 0;     // the subset that missed the pool
  std::vector<uint8_t> match_mask_;  // page-at-a-time membership mask
};

/// Data-parallel variant of RangeScanner: splits one PlanStep's row
/// ranges across a fixed worker pool, scans the partitions concurrently
/// (one private RangeScanner per worker) and merges the per-worker
/// results and QueryStats deterministically.
///
/// Determinism and stats parity (the contract EXPERIMENTS.md's page
/// tables rely on):
///  - Partition cuts are page-aligned and workers own disjoint page sets
///    within each range, so summed pages_fetched/pages_read equal the
///    serial scan's exactly (when limit == 0).
///  - Outputs are concatenated in partition order, so the emitted objid
///    sequence is identical to the serial scan's.
///  - ranges_full/ranges_partial are taken from the original step, not
///    the split pieces.
///  - With limit != 0 the result (first `limit` qualifying rows in plan
///    order) is still identical to serial, but workers may overshoot:
///    rows_scanned/pages_fetched can exceed the serial scan's.
///
/// Thread safety: thread-compatible — one ParallelRangeScanner per query;
/// it spawns onto its own TaskPool. Concurrent instances over one shared
/// BufferPool are safe.
class ParallelRangeScanner {
 public:
  /// num_threads == 0 picks QueryThreads() (MDS_QUERY_THREADS).
  ParallelRangeScanner(const Table* table, const RangeScanner::Layout& layout,
                       unsigned num_threads = 0);
  ParallelRangeScanner(const Table* table, const RangeScanner::Layout& layout,
                       unsigned num_threads,
                       const RangeScanner::ScanOptions& options);

  /// Parallel equivalent of RangeScanner::ScanStep; same contract, same
  /// counters (see class comment for the limit != 0 caveat).
  Status ScanStep(const PlanStep& step, const PolyhedronPredicate& predicate,
                  uint64_t limit, QueryStats* stats, ScanOutput* out);

  /// Adds the pooled workers' page fetch/miss tallies to `stats` (exactly
  /// like RangeScanner::AccumulateIo, summed over workers).
  void AccumulateIo(QueryStats* stats);

  unsigned num_threads() const { return pool_.num_threads(); }

 private:
  const Table* table_;
  RangeScanner::Layout layout_;
  bool count_only_;
  TaskPool pool_;
  std::vector<RangeScanner> workers_;  // one per pool thread
  // Sub-ranges assigned per worker, rebuilt each ScanStep (page-aligned).
  std::vector<std::vector<RowRange>> partitions_;
};

}  // namespace mds

#endif  // MDS_STORAGE_RANGE_SCANNER_H_
