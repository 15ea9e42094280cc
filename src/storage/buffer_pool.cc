#include "storage/buffer_pool.h"

#include "common/logging.h"

namespace mds {

namespace {

size_t AutoShards(size_t capacity) {
  size_t shards = 1;
  while (shards < BufferPool::kMaxAutoShards &&
         capacity / (shards * 2) >= BufferPool::kMinShardCapacity) {
    shards *= 2;
  }
  return shards;
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity, size_t shards,
                       bool verify_checksums)
    : pager_(pager), capacity_(capacity), verify_checksums_(verify_checksums) {
  MDS_CHECK(capacity_ > 0);
  if (shards == 0) shards = AutoShards(capacity);
  if (shards > capacity) shards = capacity;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // First `capacity % shards` shards absorb the remainder.
    shards_[s]->capacity = capacity / shards + (s < capacity % shards ? 1 : 0);
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush; errors at teardown cannot be reported.
  (void)FlushAll();
}

Result<BufferPool::PageGuard> BufferPool::Fetch(PageId id, bool* physical) {
  MDS_ASSIGN_OR_RETURN(Frame * frame,
                       PinFrame(ShardFor(id), id, /*load=*/true, physical));
  return PageGuard(this, frame);
}

Result<BufferPool::PageGuard> BufferPool::Allocate() {
  MDS_ASSIGN_OR_RETURN(PageId id, pager_->AllocatePage());
  MDS_ASSIGN_OR_RETURN(Frame * frame,
                       PinFrame(ShardFor(id), id, /*load=*/false, nullptr));
  PageGuard guard(this, frame);
  guard.MarkDirty();
  return guard;
}

Result<BufferPool::Frame*> BufferPool::PinFrame(Shard& shard, PageId id,
                                                bool load, bool* physical) {
  if (physical != nullptr) *physical = false;
  std::unique_lock<std::mutex> lock(shard.mu);
  for (auto it = shard.frames.find(id); it != shard.frames.end();
       it = shard.frames.find(id)) {
    Frame* f = it->second.get();
    if (!f->loading) {
      shard.logical_reads.fetch_add(1, std::memory_order_relaxed);
      Pin(shard, f);
      return f;
    }
    // Another fetch is reading this page: wait for it to publish or fail
    // instead of reading the page a second time.
    ++shard.waiters;
    shard.loaded.wait(lock);
    --shard.waiters;
  }
  // Checked under the shard lock: a failed load quarantines under this
  // same lock, so no fetch can slip in between and re-read a bad page.
  if (load && IsQuarantined(id)) {
    return Status::Corruption("page " + std::to_string(id) +
                              " is quarantined (failed checksum earlier)");
  }
  shard.logical_reads.fetch_add(1, std::memory_order_relaxed);
  MDS_ASSIGN_OR_RETURN(Frame * f, ClaimFrame(shard, id));
  if (!load) {
    f->page.data.fill(0);
    return f;
  }
  f->loading = true;
  shard.physical_reads.fetch_add(1, std::memory_order_relaxed);
  if (physical != nullptr) *physical = true;
  lock.unlock();

  // The frame is pinned and loading: no eviction and no other fetch
  // touches its bytes while the lock is dropped.
  Status status = pager_->ReadPage(id, &f->page);
  PageVerdict verdict = PageVerdict::kOk;
  if (status.ok() && verify_checksums_) {
    verdict = VerifyPageChecksum(f->page);
    if (verdict == PageVerdict::kCorrupt) {
      status = Status::Corruption(
          "page " + std::to_string(id) + " failed checksum: stored=" +
          std::to_string(PageStoredCrc(f->page)) +
          " computed=" + std::to_string(PageComputedCrc(f->page)));
    }
  }

  lock.lock();
  f->loading = false;
  if (shard.waiters > 0) shard.loaded.notify_all();
  if (!status.ok()) {
    if (verdict == PageVerdict::kCorrupt) {
      shard.checksum_failures.fetch_add(1, std::memory_order_relaxed);
      Quarantine(id);
    }
    // The frame leaves the table: a page that failed to load must not be
    // served from cache, not even by accident.
    f->pins = 0;
    Recycle(shard, f);
    return status;
  }
  if (verify_checksums_) {
    (verdict == PageVerdict::kOk ? shard.checksums_verified
                                 : shard.checksum_skips)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return f;
}

Result<BufferPool::Frame*> BufferPool::ClaimFrame(Shard& shard, PageId id) {
  while (shard.frames.size() >= shard.capacity) {
    MDS_RETURN_NOT_OK(EvictOne(shard));
  }
  Frame* f;
  if (shard.spare.empty()) {
    f = shard.frames.emplace(id, std::make_unique<Frame>()).first->second.get();
  } else {
    FrameMap::node_type node = std::move(shard.spare.back());
    shard.spare.pop_back();
    node.key() = id;
    f = node.mapped().get();
    shard.frames.insert(std::move(node));
  }
  f->id = id;
  f->pins = 1;
  f->dirty = false;
  f->loading = false;
  return f;
}

void BufferPool::Recycle(Shard& shard, Frame* f) {
  shard.spare.push_back(shard.frames.extract(f->id));
}

Status BufferPool::EvictOne(Shard& shard) {
  // The LRU list holds exactly the unpinned frames, so its tail is the
  // least recently used evictable page of this shard.
  Frame* victim = shard.lru_tail;
  if (victim == nullptr) {
    return Status::ResourceExhausted("buffer pool: all pages of shard pinned");
  }
  if (victim->dirty) {
    MDS_RETURN_NOT_OK(WriteBack(shard, victim));
  }
  LruRemove(shard, victim);
  Recycle(shard, victim);
  shard.evictions.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void BufferPool::Pin(Shard& shard, Frame* f) {
  if (f->pins == 0) LruRemove(shard, f);
  ++f->pins;
}

void BufferPool::Unpin(Frame* f, bool dirty) {
  Shard& shard = ShardFor(f->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  MDS_CHECK(f->pins > 0);
  f->dirty = f->dirty || dirty;
  --f->pins;
  if (f->pins == 0) LruPushFront(shard, f);
}

void BufferPool::LruPushFront(Shard& shard, Frame* f) {
  f->lru_prev = nullptr;
  f->lru_next = shard.lru_head;
  if (shard.lru_head != nullptr) {
    shard.lru_head->lru_prev = f;
  } else {
    shard.lru_tail = f;
  }
  shard.lru_head = f;
}

void BufferPool::LruRemove(Shard& shard, Frame* f) {
  (f->lru_prev != nullptr ? f->lru_prev->lru_next : shard.lru_head) =
      f->lru_next;
  (f->lru_next != nullptr ? f->lru_next->lru_prev : shard.lru_tail) =
      f->lru_prev;
  f->lru_prev = nullptr;
  f->lru_next = nullptr;
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (frame->dirty) {
        MDS_RETURN_NOT_OK(WriteBack(*shard, frame.get()));
        frame->dirty = false;
      }
    }
  }
  return pager_->Sync();
}

Status BufferPool::WriteBack(Shard& shard, Frame* f) {
  // Stamp the footer CRC right before the bytes leave the pool — the one
  // choke point every physical write funnels through, so no page reaches
  // the device unstamped.
  if (verify_checksums_) StampPageChecksum(&f->page);
  shard.physical_writes.fetch_add(1, std::memory_order_relaxed);
  return pager_->WritePage(f->id, f->page);
}

void BufferPool::Quarantine(PageId id) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_.insert(id);
  quarantine_nonempty_.store(true, std::memory_order_release);
}

bool BufferPool::IsQuarantined(PageId id) const {
  if (!quarantine_nonempty_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.count(id) != 0;
}

size_t BufferPool::quarantined_count() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.size();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    total.logical_reads += shard->logical_reads.load(std::memory_order_relaxed);
    total.physical_reads +=
        shard->physical_reads.load(std::memory_order_relaxed);
    total.physical_writes +=
        shard->physical_writes.load(std::memory_order_relaxed);
    total.evictions += shard->evictions.load(std::memory_order_relaxed);
    total.checksums_verified +=
        shard->checksums_verified.load(std::memory_order_relaxed);
    total.checksum_skips +=
        shard->checksum_skips.load(std::memory_order_relaxed);
    total.checksum_failures +=
        shard->checksum_failures.load(std::memory_order_relaxed);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    shard->logical_reads.store(0, std::memory_order_relaxed);
    shard->physical_reads.store(0, std::memory_order_relaxed);
    shard->physical_writes.store(0, std::memory_order_relaxed);
    shard->evictions.store(0, std::memory_order_relaxed);
    shard->checksums_verified.store(0, std::memory_order_relaxed);
    shard->checksum_skips.store(0, std::memory_order_relaxed);
    shard->checksum_failures.store(0, std::memory_order_relaxed);
  }
}

CounterSnapshot BufferPool::Snapshot() const {
  const BufferPoolStats total = stats();
  return CounterSnapshot{total.logical_reads, total.physical_reads,
                         total.checksums_verified, total.checksum_skips};
}

CounterSnapshot::Delta BufferPool::Delta(const CounterSnapshot& since) const {
  const BufferPoolStats total = stats();
  return CounterSnapshot::Delta{
      total.logical_reads - since.logical_reads,
      total.physical_reads - since.physical_reads,
      total.checksums_verified - since.checksums_verified,
      total.checksum_skips - since.checksum_skips};
}

size_t BufferPool::resident() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->frames.size();
  }
  return n;
}

}  // namespace mds
