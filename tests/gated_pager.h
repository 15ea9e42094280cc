#ifndef MDS_TESTS_GATED_PAGER_H_
#define MDS_TESTS_GATED_PAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace mds {

/// Test double that holds one page's read in flight: ReadPage of the gated
/// id blocks on a latch until Open(), every other call forwards to the base
/// pager at once, and every read is counted. Tests use it to observe the
/// buffer pool while a miss is loading outside the shard lock.
class GatedPager : public Pager {
 public:
  GatedPager(Pager* base, PageId gated) : base_(base), gated_(gated) {}

  Result<PageId> AllocatePage() override { return base_->AllocatePage(); }
  Status ReadPage(PageId id, Page* page) override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    if (id == gated_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return base_->ReadPage(id, page);
  }
  Status WritePage(PageId id, const Page& page) override {
    return base_->WritePage(id, page);
  }
  uint64_t NumPages() const override { return base_->NumPages(); }
  Status Sync() override { return base_->Sync(); }

  /// Waits until a read of the gated page is blocked on the latch; false
  /// if none arrives within `bound`.
  bool WaitUntilGatedReadBlocks(std::chrono::milliseconds bound) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, bound, [this] { return entered_ > 0; });
  }

  /// Releases every blocked and future read of the gated page. Idempotent,
  /// so a test can call it on every exit path before joining its threads.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  Pager* base_;
  PageId gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
  std::atomic<uint64_t> reads_{0};
};

/// Appends `count` pages to `pager` whose first word is 1000 + page id,
/// written back through a verifying pool so each carries a valid CRC.
inline Status WriteStampedPages(Pager* pager, uint64_t count) {
  BufferPool pool(pager, 4);
  for (uint64_t i = 0; i < count; ++i) {
    MDS_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool.Allocate());
    guard.MutablePage().WriteAt<uint64_t>(0, 1000 + guard.id());
  }
  return pool.FlushAll();
}

}  // namespace mds

#endif  // MDS_TESTS_GATED_PAGER_H_
