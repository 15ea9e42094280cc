#ifndef MDS_COMMON_PARALLEL_H_
#define MDS_COMMON_PARALLEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace mds {

/// Worker count for query execution and index builds: the value of the
/// MDS_QUERY_THREADS environment variable if set and positive, otherwise
/// std::thread::hardware_concurrency() (minimum 1). Read once per process.
unsigned QueryThreads();

/// Fixed pool of worker threads with two ways in:
///  - Run(): a synchronous fork/join over every worker — the "fixed worker
///    pool" all parallel query machinery (ParallelRangeScanner,
///    QueryEngine::ExecuteBatch, parallel kd-tree build) shares, so
///    concurrency is bounded by one knob rather than multiplying per layer;
///  - Submit(): a FIFO task queue drained by num_threads() pool threads —
///    the serving layer's request workers and mdsc's backend legs — and
///    SubmitAt(), its timed form (mdsc's hedge timers), whose tasks hold
///    no thread while they wait.
/// A pool normally serves one of the two; mixing is allowed, but a Run()
/// then also waits for workers busy in submitted tasks.
///
/// Thread safety: Run() may be called from one thread at a time per pool;
/// Submit()/SubmitAt() from any number of threads, including pool threads.
/// Distinct pools are independent. The pool itself must be constructed
/// and destroyed on a single thread, with no submission racing the
/// destructor from outside the pool.
class TaskPool {
 public:
  /// threads == 0 picks QueryThreads(). A pool of 1 runs Run() bodies
  /// inline on the calling thread; until the first Submit() it spawns no
  /// thread at all.
  explicit TaskPool(unsigned threads = 0);
  /// Runs every task still queued (timed ones at once), then joins the
  /// workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Invokes fn(worker) for worker = 0..num_threads()-1, one invocation
  /// per worker thread (worker 0 runs on the calling thread), and blocks
  /// until all invocations return. fn must not throw.
  void Run(const std::function<void(unsigned)>& fn);

  /// Queues `task` to run once on a pool thread — never inline on the
  /// caller, even for a pool of 1 — and returns at once. Up to
  /// num_threads() tasks run concurrently: Run()'s worker 0 is its caller,
  /// so the first Submit() starts one more thread to take that place.
  /// Tasks start in submission order. task must not throw.
  void Submit(std::function<void()> task);

  /// As Submit, but the task starts no earlier than `when` (the
  /// destructor runs it early rather than drop it).
  void SubmitAt(std::chrono::steady_clock::time_point when,
                std::function<void()> task);

 private:
  void WorkerLoop(unsigned worker);
  void StartQueueThread();  // called with mu_ held

  unsigned num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a generation or task
  std::condition_variable done_cv_;   // Run() waits for completion
  const std::function<void(unsigned)>* job_ = nullptr;  // valid while running
  uint64_t generation_ = 0;  // bumped per Run(); workers run once per bump
  unsigned pending_ = 0;     // workers still inside the current job
  std::deque<std::function<void()>> tasks_;  // Submit() queue
  std::multimap<std::chrono::steady_clock::time_point,
                std::function<void()>>
      timed_;  // SubmitAt() tasks, earliest first
  bool timer_armed_ = false;  // an idle worker waits for timed_'s earliest
  bool queue_thread_started_ = false;  // worker 0's Submit-only thread
  bool stop_ = false;
};

/// Fork/join parallel loop: invokes fn(i) for every i in [0, n), dynamically
/// load-balanced across the pool's workers in chunks of `grain` iterations.
/// Iterations must be independent; fn may run on any worker thread,
/// including the caller's. With a 1-thread pool this is a plain loop.
void ParallelFor(TaskPool* pool, uint64_t n, uint64_t grain,
                 const std::function<void(uint64_t)>& fn);

}  // namespace mds

#endif  // MDS_COMMON_PARALLEL_H_
