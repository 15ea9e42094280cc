#ifndef MDS_STORAGE_BUFFER_POOL_H_
#define MDS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "storage/page_checksum.h"
#include "storage/pager.h"

namespace mds {

/// I/O accounting, the primary metric for experiments E2/E3: the paper's
/// key claim for the layered grid is that "practically only points which
/// are actually returned are read from disk", which we verify by counting
/// physical page reads here.
struct BufferPoolStats {
  uint64_t logical_reads = 0;   ///< page fetches served (hit or miss)
  uint64_t physical_reads = 0;  ///< fetches that had to hit the pager
  uint64_t physical_writes = 0;
  uint64_t evictions = 0;
  uint64_t checksums_verified = 0;  ///< miss reads whose CRC checked out
  uint64_t checksum_skips = 0;      ///< unformatted (fresh zero) pages
  uint64_t checksum_failures = 0;   ///< miss reads rejected -> quarantined

  double HitRate() const {
    return logical_reads == 0
               ? 1.0
               : 1.0 - static_cast<double>(physical_reads) /
                           static_cast<double>(logical_reads);
  }
};

/// Point-in-time copy of the pool's read counters plus delta arithmetic —
/// the one way to measure pool-level I/O. Take a snapshot before the work,
/// subtract after; no caller should diff raw `stats()` fields by hand.
/// Under concurrency a snapshot is a monotone (per-shard-consistent) cut:
/// deltas are exact when the pool is externally quiescent over the window,
/// and otherwise attribute all threads' I/O to the window — per-query
/// attribution under concurrency belongs to RangeScanner, which counts its
/// own fetches.
struct CounterSnapshot {
  uint64_t logical_reads = 0;
  uint64_t physical_reads = 0;
  uint64_t checksums_verified = 0;
  uint64_t checksum_skips = 0;

  struct Delta {
    uint64_t logical_reads = 0;   ///< page fetches since the snapshot
    uint64_t physical_reads = 0;  ///< fetches that missed the pool
    uint64_t checksums_verified = 0;  ///< CRC verifications in the window
    uint64_t checksum_skips = 0;      ///< unformatted pages skipped
  };
};

/// Fixed-capacity LRU buffer pool over a Pager. Pages are pinned while a
/// PageGuard is alive; unpinned pages are eligible for eviction (dirty
/// pages are written back).
///
/// Thread safety: the pool is fully thread-safe — any number of threads
/// may Fetch/Allocate/release guards concurrently, which is what lets the
/// query engine run many queries at once over one shared pool (the
/// concurrent-serving setup of DESIGN.md "Concurrency model"). Internally
/// the pool is lock-striped: pages are distributed over independent shards
/// (page id modulo shard count), each with its own mutex, frame table, LRU
/// list and capacity slice, so two queries touching different pages rarely
/// contend. Counters are per-shard atomics aggregated on read.
///
/// A miss never holds its shard mutex across I/O: under the lock it claims
/// a frame (evicting the LRU victim, recycling a spare frame), inserts it
/// pinned and marked `loading`, then drops the lock for the pager read and
/// CRC check and relocks to publish the frame. A fetch of a page that is
/// still loading waits on the shard's condition variable, so a page is
/// read once however many threads want it, and hits on other pages of the
/// shard proceed meanwhile. A loading frame is never evicted. If the CRC
/// fails, the frame leaves the table and the page is quarantined before
/// any waiter wakes, so every waiter gets kCorruption without a second
/// read; on any other pager error the waiters retry the load themselves.
///
/// Per-method guarantees:
///  - Fetch / Allocate / guard release: thread-safe (shard mutex held only
///    for table/LRU bookkeeping, never across miss reads; dirty eviction
///    write-back and FlushAll still write under it).
///  - FlushAll: thread-safe, but flushes a moving target if writers are
///    active; quiesce writers for a meaningful barrier.
///  - stats / Snapshot / Delta: thread-safe, lock-free counter reads.
///  - resident: thread-safe (briefly takes each shard lock in turn; counts
///    loading frames).
///  - ResetStats: thread-safe, but only meaningful while quiescent.
///  - Construction/destruction: single-threaded, strictly before/after all
///    concurrent use.
///
/// Physical I/O through the pager requires the Pager implementation to be
/// thread-safe (FilePager and MemPager are; see pager.h).
class BufferPool {
 public:
  /// capacity: maximum resident pages (> 0), partitioned over the shards.
  /// shards: lock stripes; 0 picks a power of two such that every shard
  /// owns at least kMinShardCapacity pages (small pools degrade to a
  /// single shard, i.e. exactly the old single-threaded LRU semantics,
  /// which the storage tests rely on).
  /// verify_checksums: when true (default), every dirty write-back stamps
  /// the page footer CRC and every pool miss verifies it; false disables
  /// both, which exists solely so bench_integrity can measure the cost.
  BufferPool(Pager* pager, size_t capacity, size_t shards = 0,
             bool verify_checksums = true);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  class PageGuard;

  /// Fetches a page, pinning it for the guard's lifetime. If `physical`
  /// is non-null it is set to whether this fetch missed the pool and hit
  /// the pager — how RangeScanner attributes I/O to one query even while
  /// other queries run (a pool-wide counter delta could not).
  Result<PageGuard> Fetch(PageId id, bool* physical = nullptr);

  /// Allocates a fresh page in the pager and returns it pinned (dirty).
  Result<PageGuard> Allocate();

  /// Writes back all dirty pages.
  Status FlushAll();

  /// Aggregated counters across shards (by value: the per-shard counters
  /// are the source of truth and must be summed under concurrency).
  BufferPoolStats stats() const;
  void ResetStats();

  /// Captures the current read counters for later Delta() calls.
  CounterSnapshot Snapshot() const;

  /// Reads performed since `since` was taken.
  CounterSnapshot::Delta Delta(const CounterSnapshot& since) const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t resident() const;
  Pager* pager() const { return pager_; }
  bool verify_checksums() const { return verify_checksums_; }

  /// True if `id` failed checksum verification earlier. Quarantined pages
  /// never enter the frame table: Fetch fails fast with kCorruption without
  /// re-reading the device, so a scan that skips corrupt pages pays for the
  /// bad page once, not once per query.
  bool IsQuarantined(PageId id) const;
  size_t quarantined_count() const;

  /// Auto-sharding floor: a shard is only split off while every shard
  /// keeps at least this many pages, so tiny pools stay single-sharded
  /// (global LRU order) and eviction pressure is not amplified.
  static constexpr size_t kMinShardCapacity = 64;
  /// Auto-sharding ceiling: enough stripes to keep a typical worker-pool's
  /// pin/unpin traffic spread out, small enough that per-shard LRU slices
  /// stay deep. See DESIGN.md "Concurrency model" for the rationale.
  static constexpr size_t kMaxAutoShards = 16;

 private:
  /// A resident page. Frames of a shard are recycled through its spare
  /// list, so a miss at capacity neither allocates nor zero-fills a page.
  struct Frame {
    PageId id = kInvalidPageId;
    Page page;
    uint32_t pins = 0;
    bool dirty = false;
    bool loading = false;  // pinned by its loader; bytes not yet verified
    // Intrusive LRU links (toward the MRU and LRU ends); the frame is on
    // the shard's LRU list iff pins == 0.
    Frame* lru_prev = nullptr;
    Frame* lru_next = nullptr;
  };

  using FrameMap = std::unordered_map<PageId, std::unique_ptr<Frame>>;

  /// One lock stripe: an independent LRU pool over the page ids congruent
  /// to its index modulo the shard count. All fields below `mu` are
  /// guarded by `mu`; the counters are atomics so readers never lock.
  struct Shard {
    std::mutex mu;
    std::condition_variable loaded;  // a loading frame resolved
    uint32_t waiters = 0;            // fetches waiting on `loaded`
    size_t capacity = 0;
    FrameMap frames;
    Frame* lru_head = nullptr;  // most recently used
    Frame* lru_tail = nullptr;  // eviction victim
    // Table nodes of evicted or failed frames, reused by the next miss.
    std::vector<FrameMap::node_type> spare;

    std::atomic<uint64_t> logical_reads{0};
    std::atomic<uint64_t> physical_reads{0};
    std::atomic<uint64_t> physical_writes{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> checksums_verified{0};
    std::atomic<uint64_t> checksum_skips{0};
    std::atomic<uint64_t> checksum_failures{0};
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  /// Returns `id`'s frame pinned, loading it from the pager on a miss
  /// (load == true) or zero-filling it (load == false, for Allocate).
  Result<Frame*> PinFrame(Shard& shard, PageId id, bool load, bool* physical);
  /// Inserts a pinned frame for `id`, evicting if the shard is full;
  /// called with the shard mutex held.
  Result<Frame*> ClaimFrame(Shard& shard, PageId id);
  /// Moves a frame out of the table onto the spare list; mutex held.
  void Recycle(Shard& shard, Frame* f);
  Status EvictOne(Shard& shard);
  void Pin(Shard& shard, Frame* f);
  void Unpin(Frame* f, bool dirty);
  static void LruPushFront(Shard& shard, Frame* f);
  static void LruRemove(Shard& shard, Frame* f);
  Status WriteBack(Shard& shard, Frame* f);
  void Quarantine(PageId id);

  Pager* pager_;
  size_t capacity_;
  bool verify_checksums_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Pages rejected by checksum verification. Kept out of the sharded
  /// frame tables on purpose: the set is expected to be empty in healthy
  /// operation, so a miss only pays one atomic load (quarantine_nonempty_)
  /// before skipping the lookup entirely. Hits never look: a quarantined
  /// page has no frame. Lock order: a shard mutex, then quarantine_mu_.
  mutable std::mutex quarantine_mu_;
  std::unordered_set<PageId> quarantined_;
  std::atomic<bool> quarantine_nonempty_{false};

  friend class PageGuard;
};

/// RAII pin on a buffered page. Mark dirty via MarkDirty() before writing.
///
/// Thread safety: a guard is thread-compatible — it may be moved between
/// threads but must not be accessed from two threads at once. The page
/// bytes it exposes are protected only by the pin (eviction is blocked);
/// two guards on the same page see the same bytes, so concurrent writers
/// of one page must coordinate externally (the query path never writes).
class BufferPool::PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      dirty_ = other.dirty_;
      other.pool_ = nullptr;
      other.frame_ = nullptr;
      other.dirty_ = false;
    }
    return *this;
  }

  bool valid() const { return frame_ != nullptr; }
  PageId id() const { return frame_->id; }
  const Page& page() const { return frame_->page; }
  Page& MutablePage() {
    dirty_ = true;
    return frame_->page;
  }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && frame_ != nullptr) {
      pool_->Unpin(frame_, dirty_);
    }
    pool_ = nullptr;
    frame_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
  bool dirty_ = false;
};

}  // namespace mds

#endif  // MDS_STORAGE_BUFFER_POOL_H_
