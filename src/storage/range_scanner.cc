#include "storage/range_scanner.h"

#include <algorithm>
#include <cstring>

namespace mds {

void CoalesceRanges(std::vector<RowRange>* ranges) {
  if (ranges->empty()) return;
  std::sort(ranges->begin(), ranges->end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.kind < b.kind;
            });
  size_t out = 0;
  for (size_t i = 1; i < ranges->size(); ++i) {
    RowRange& prev = (*ranges)[out];
    const RowRange& cur = (*ranges)[i];
    if (cur.kind == prev.kind && cur.begin <= prev.end) {
      prev.end = std::max(prev.end, cur.end);
    } else {
      (*ranges)[++out] = cur;
    }
  }
  ranges->resize(out + 1);
}

RangeScanner::RangeScanner(const Table* table, const Layout& layout)
    : RangeScanner(table, layout, ScanOptions{}) {}

RangeScanner::RangeScanner(const Table* table, const Layout& layout,
                           const ScanOptions& options)
    : table_(table), layout_(layout), options_(options) {}

Status RangeScanner::ScanStep(const PlanStep& step,
                              const PolyhedronPredicate& predicate,
                              uint64_t limit, QueryStats* stats,
                              ScanOutput* out) {
  for (const RowRange& range : step.ranges) {
    if (limit != 0 && out->rows >= limit) return Status::OK();
    if (range.kind == RangeKind::kFull) {
      ++stats->ranges_full;
    } else {
      ++stats->ranges_partial;
    }
    MDS_RETURN_NOT_OK(ScanRange(range, predicate, limit, stats, out));
  }
  return Status::OK();
}

Status RangeScanner::ScanRange(const RowRange& range,
                               const PolyhedronPredicate& predicate,
                               uint64_t limit, QueryStats* stats,
                               ScanOutput* out) {
  if (range.begin > range.end || range.end > table_->num_rows()) {
    return Status::OutOfRange("RangeScanner: bad row range");
  }
  const Schema& schema = table_->schema();
  const uint32_t row_size = schema.row_size();
  const uint32_t objid_off = schema.offset(layout_.objid_col);
  const uint32_t coord_off = schema.offset(layout_.first_coord_col);
  const uint32_t rows_per_page = table_->rows_per_page();

  uint64_t row = range.begin;
  while (row < range.end) {
    const uint64_t page_index = row / rows_per_page;
    const uint64_t first_in_page = row % rows_per_page;
    const uint64_t rows_here =
        std::min<uint64_t>(range.end - row, rows_per_page - first_in_page);
    bool physical = false;
    Result<BufferPool::PageGuard> fetched =
        table_->pool()->Fetch(table_->page_id(page_index), &physical);
    if (!fetched.ok()) {
      if (options_.skip_corrupt_pages &&
          fetched.status().code() == StatusCode::kCorruption) {
        // Degraded mode: the page is quarantined; drop its rows, say so.
        ++stats->pages_skipped;
        stats->degraded = true;
        row += rows_here;
        continue;
      }
      return fetched.status();
    }
    BufferPool::PageGuard guard = std::move(*fetched);
    ++pages_fetched_;
    if (physical) ++pages_read_;
    const uint8_t* base = guard.page().bytes() + first_in_page * row_size;

    // Rows of this page the TOP(limit) mark still admits; on entry
    // out->rows < limit, so at least one.
    const uint64_t room =
        limit == 0 ? rows_here : std::min(rows_here, limit - out->rows);
    if (range.kind == RangeKind::kFull) {
      // The BETWEEN case: every row qualifies, only the objid column is
      // decoded (and not even that when counting).
      if (!options_.count_only) {
        for (uint64_t i = 0; i < room; ++i) {
          int64_t objid;
          std::memcpy(&objid, base + i * row_size + objid_off,
                      sizeof(objid));
          out->objids.push_back(objid);
        }
      }
      stats->rows_scanned += room;
      stats->rows_emitted += room;
      out->rows += room;
    } else {
      // The predicate reads the pinned page in place: its first
      // coordinate column, one row size apart. The membership mask is
      // computed page-at-a-time (SIMD kernels); the counters are
      // row-exact regardless, matching the per-row Matches path bit for
      // bit: the scan stops on the row that reaches the limit.
      match_mask_.resize(rows_here);
      predicate.MatchBatch(base + coord_off, row_size, rows_here,
                           match_mask_.data());
      uint64_t tested = 0;
      uint64_t matched = 0;
      while (tested < rows_here && matched < room) {
        matched += match_mask_[tested++];
      }
      if (!options_.count_only) {
        for (uint64_t i = 0; i < tested; ++i) {
          if (match_mask_[i] == 0) continue;
          int64_t objid;
          std::memcpy(&objid, base + i * row_size + objid_off,
                      sizeof(objid));
          out->objids.push_back(objid);
        }
      }
      stats->rows_scanned += tested;
      stats->rows_tested += tested;
      stats->rows_emitted += matched;
      out->rows += matched;
    }
    if (limit != 0 && out->rows >= limit) return Status::OK();
    row += rows_here;
  }
  return Status::OK();
}

void RangeScanner::AccumulateIo(QueryStats* stats) {
  stats->pages_fetched += pages_fetched_;
  stats->pages_read += pages_read_;
  pages_fetched_ = 0;
  pages_read_ = 0;
}

// --- ParallelRangeScanner --------------------------------------------------

ParallelRangeScanner::ParallelRangeScanner(const Table* table,
                                           const RangeScanner::Layout& layout,
                                           unsigned num_threads)
    : ParallelRangeScanner(table, layout, num_threads,
                           RangeScanner::ScanOptions{}) {}

ParallelRangeScanner::ParallelRangeScanner(
    const Table* table, const RangeScanner::Layout& layout,
    unsigned num_threads, const RangeScanner::ScanOptions& options)
    : table_(table),
      layout_(layout),
      count_only_(options.count_only),
      pool_(num_threads) {
  workers_.reserve(pool_.num_threads());
  for (unsigned w = 0; w < pool_.num_threads(); ++w) {
    workers_.emplace_back(table, layout, options);
  }
  partitions_.resize(pool_.num_threads());
}

Status ParallelRangeScanner::ScanStep(const PlanStep& step,
                                      const PolyhedronPredicate& predicate,
                                      uint64_t limit, QueryStats* stats,
                                      ScanOutput* out) {
  // Range counters come from the original (un-split) step so the parallel
  // scan reports the same plan shape as the serial one.
  uint64_t total_rows = 0;
  for (const RowRange& range : step.ranges) {
    total_rows += range.end - range.begin;
    if (range.kind == RangeKind::kFull) {
      ++stats->ranges_full;
    } else {
      ++stats->ranges_partial;
    }
  }
  const uint64_t remaining =
      limit == 0 ? 0 : (out->rows >= limit ? 0 : limit - out->rows);
  if (limit != 0 && remaining == 0) return Status::OK();

  const unsigned threads = pool_.num_threads();
  const uint32_t rows_per_page = table_->rows_per_page();
  // Below ~one page per worker the fork/join overhead cannot pay off.
  if (threads == 1 || total_rows < uint64_t{2} * threads * rows_per_page) {
    QueryStats local;
    Status status =
        workers_[0].ScanStep(step, predicate, limit, &local, out);
    stats->rows_scanned += local.rows_scanned;
    stats->rows_tested += local.rows_tested;
    stats->rows_emitted += local.rows_emitted;
    stats->pages_skipped += local.pages_skipped;
    stats->degraded = stats->degraded || local.degraded;
    return status;
  }

  // Partition the plan's rows into `threads` contiguous, page-aligned
  // chunks. Page alignment keeps worker page sets disjoint within each
  // range, which is what makes summed pages_fetched match serial exactly.
  for (auto& partition : partitions_) partition.clear();
  const uint64_t target = (total_rows + threads - 1) / threads;
  unsigned w = 0;
  uint64_t quota = target;
  for (const RowRange& range : step.ranges) {
    uint64_t begin = range.begin;
    while (begin < range.end) {
      if (quota == 0 && w + 1 < threads) {
        ++w;
        quota = target;
      }
      uint64_t cut = range.end;
      if (range.end - begin > quota && w + 1 < threads) {
        // Round the cut up to the next page boundary (always progresses,
        // since begin + quota rounds past begin's page start).
        const uint64_t raw = begin + quota;
        cut = std::min<uint64_t>(
            range.end,
            (raw + rows_per_page - 1) / rows_per_page * rows_per_page);
      }
      partitions_[w].push_back(RowRange{begin, cut, range.kind});
      const uint64_t taken = cut - begin;
      quota -= std::min(quota, taken);
      begin = cut;
    }
  }

  std::vector<QueryStats> worker_stats(threads);
  std::vector<ScanOutput> worker_out(threads);
  std::vector<Status> worker_status(threads);
  pool_.Run([&](unsigned worker) {
    if (partitions_[worker].empty()) return;
    PlanStep part;
    part.ranges = partitions_[worker];
    worker_status[worker] =
        workers_[worker].ScanStep(part, predicate, remaining,
                                  &worker_stats[worker], &worker_out[worker]);
  });

  for (unsigned i = 0; i < threads; ++i) {
    MDS_RETURN_NOT_OK(worker_status[i]);
  }

  for (unsigned i = 0; i < threads; ++i) {
    stats->rows_scanned += worker_stats[i].rows_scanned;
    stats->rows_tested += worker_stats[i].rows_tested;
    stats->pages_skipped += worker_stats[i].pages_skipped;
    stats->degraded = stats->degraded || worker_stats[i].degraded;
  }

  // Deterministic merge: concatenate in partition order (== plan order),
  // truncating at the limit, so the emitted sequence matches serial.
  uint64_t emitted = 0;
  for (unsigned i = 0; i < threads; ++i) {
    uint64_t take = worker_out[i].rows;
    if (limit != 0) {
      const uint64_t room = limit - out->rows;
      take = std::min<uint64_t>(take, room);
    }
    if (!count_only_) {
      const std::vector<int64_t>& ids = worker_out[i].objids;
      out->objids.insert(out->objids.end(), ids.begin(),
                         ids.begin() + static_cast<ptrdiff_t>(take));
    }
    out->rows += take;
    emitted += take;
    if (limit != 0 && out->rows >= limit) break;
  }
  stats->rows_emitted += emitted;
  return Status::OK();
}

void ParallelRangeScanner::AccumulateIo(QueryStats* stats) {
  for (RangeScanner& worker : workers_) {
    worker.AccumulateIo(stats);
  }
}

}  // namespace mds
