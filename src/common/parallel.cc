#include "common/parallel.h"

#include <cstdlib>

namespace mds {

unsigned QueryThreads() {
  static const unsigned value = [] {
    if (const char* env = std::getenv("MDS_QUERY_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1u;
  }();
  return value;
}

TaskPool::TaskPool(unsigned threads)
    : num_threads_(threads != 0 ? threads : QueryThreads()) {
  // Worker 0 is the caller; only workers 1..N-1 get threads.
  workers_.reserve(num_threads_ - 1);
  for (unsigned w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    StartQueueThread();
  }
  work_cv_.notify_one();
}

void TaskPool::SubmitAt(std::chrono::steady_clock::time_point when,
                        std::function<void()> task) {
  bool earliest = false;
  bool watched = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    earliest = timed_.emplace(when, std::move(task)) == timed_.begin();
    watched = timer_armed_;
    StartQueueThread();
  }
  // One idle worker at a time watches the earliest due time (WorkerLoop).
  // Without a watcher, wake a worker to become one; with one, only a new
  // earliest time needs it to re-read, and it cannot be told apart from
  // the other waiters.
  if (!watched) {
    work_cv_.notify_one();
  } else if (earliest) {
    work_cv_.notify_all();
  }
}

void TaskPool::StartQueueThread() {
  if (queue_thread_started_) return;
  queue_thread_started_ = true;
  workers_.emplace_back([this] { WorkerLoop(0); });
}

void TaskPool::Run(const std::function<void(unsigned)>& fn) {
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  fn(0);  // the calling thread is worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
}

void TaskPool::WorkerLoop(unsigned worker) {
  // Worker 0's thread exists only for the task queues: Run()'s worker 0 is
  // always its caller.
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  // Before this worker runs something (which may block), another idle
  // worker takes over the watch for the earliest timed task.
  const auto hand_off_watch = [this] {
    if (!timed_.empty() && !timer_armed_) work_cv_.notify_one();
  };
  for (;;) {
    if (worker != 0 && generation_ != seen) {
      seen = generation_;
      const std::function<void(unsigned)>* job = job_;
      hand_off_watch();
      lock.unlock();
      (*job)(worker);
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_one();
      continue;
    }
    // A timed task is due at its time — or at once when stopping: queued
    // work drains, since a submitter may still be waiting on it.
    if (!timed_.empty() && (stop_ || timed_.begin()->first <=
                                         std::chrono::steady_clock::now())) {
      tasks_.push_back(std::move(timed_.begin()->second));
      timed_.erase(timed_.begin());
    }
    if (!tasks_.empty()) {
      {
        std::function<void()> task = std::move(tasks_.front());
        tasks_.pop_front();
        hand_off_watch();
        lock.unlock();
        task();
      }  // the task (and what it captured) is gone before relocking
      lock.lock();
      continue;
    }
    if (stop_) return;
    if (timed_.empty() || timer_armed_) {
      work_cv_.wait(lock);
    } else {
      // This worker watches the earliest timed task; the others wait
      // untimed, so a due time wakes one thread, not every idle one. A
      // copy of the time: another worker may run (and erase) that task.
      timer_armed_ = true;
      const std::chrono::steady_clock::time_point due = timed_.begin()->first;
      work_cv_.wait_until(lock, due);
      timer_armed_ = false;
    }
  }
}

void ParallelFor(TaskPool* pool, uint64_t n, uint64_t grain,
                 const std::function<void(uint64_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->num_threads() == 1 || n <= grain) {
    for (uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<uint64_t> next{0};
  pool->Run([&](unsigned) {
    for (;;) {
      const uint64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const uint64_t end = std::min(begin + grain, n);
      for (uint64_t i = begin; i < end; ++i) fn(i);
    }
  });
}

}  // namespace mds
