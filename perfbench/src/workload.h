#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The four traffic mixes, their deployments (what setup_s times), the
// closed-loop load generator and the reply oracle.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench.h"
#include "storage/buffer_pool.h"

namespace perfbench {

enum class Kind { kMixedResident, kBoxSpill, kHotPipelined, kScatter4Shard };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  Mix mix;
  /// Requests per pipelined batch; 1 = one request per round trip.
  size_t batch;
  /// Response-cache bytes on the serving front end (0 = off).
  size_t cache_bytes;
  /// Non-zero: the workload folds onto this many distinct point_count
  /// boxes (hot-pipelined).
  size_t distinct_boxes;
  /// Non-zero: connection 0 sends Reload("") after every this many of
  /// its batches. Frequent enough that every slice of the window holds
  /// about the same number of reloads.
  size_t reload_every_batches;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Dataset generations a hot-pipelined server publishes on Reload. In
/// traced runs every generation is kept with a pool snapshot, so the
/// window's buffer-pool delta can be summed across reloads.
class GenerationLog {
 public:
  explicit GenerationLog(bool retain) : retain_(retain) {}
  void Add(const std::shared_ptr<mds::ServedDataset>& dataset);
  /// Restarts the pool window at the current counters of the serving
  /// (newest) generation and drops the older ones.
  void BeginWindow();
  mds::CounterSnapshot::Delta WindowDelta() const;

 private:
  struct Generation {
    std::shared_ptr<const mds::ServedDataset> dataset;
    mds::CounterSnapshot since;
  };
  bool retain_;
  mutable std::mutex mu_;
  std::vector<Generation> generations_;
};

/// One workload's running system: datasets, mdsd servers and (for
/// scatter-4shard) the mdsc coordinator, plus what the oracle needs.
struct Deployment {
  const WorkloadSpec* spec = nullptr;
  /// Dataset file the spill/hot workloads serve from (removed on Stop).
  std::string artifact;
  /// The full catalog queries are replayed against in process: the served
  /// dataset, or for scatter-4shard the single-server reference.
  std::shared_ptr<const mds::ServedDataset> engine;
  std::vector<std::shared_ptr<const mds::ServedDataset>> shards;
  /// The serving mdsd, or the four mdsd backends of scatter-4shard.
  std::vector<std::unique_ptr<mds::QueryServer>> servers;
  std::unique_ptr<mds::Coordinator> coordinator;
  /// scatter-4shard's single-server oracle (cache off), not part of setup.
  std::unique_ptr<mds::QueryServer> reference;
  std::shared_ptr<GenerationLog> generations;
  /// Where clients connect.
  uint16_t port = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  /// Counters of the endpoint clients talk to (in process: the same
  /// snapshot a kStats request returns, without sending one).
  mds::protocol::ServerStatsSnapshot EndpointStats() const;
  /// Buffer pools behind the served data (one per shard for scatter).
  std::vector<mds::BufferPool*> Pools() const;
  void Stop();
};

/// Query workers of every mdsd the benchmark starts: one fewer than the
/// host's cores. The closed-loop clients share the host with the server
/// (in production they would not), and with as many busy workers as cores
/// the reactor thread and the clients queue behind full-table scans, which
/// made run-to-run throughput swing by a third on a 4-core host.
unsigned ServerWorkers();
/// mdsd's defaults except ServerWorkers() workers and `cache_bytes`.
mds::ServerConfig ServingConfig(size_t cache_bytes);

struct SetupTimes {
  double total_s = 0;
  double build_s = 0;  // ServedDataset::Build (summed over shards)
  double write_s = 0;  // WriteDatasetFile
  double load_s = 0;   // ServedDataset::Load
};

/// Builds and starts the workload's system, until the first request can
/// be served. `scratch_dir` holds the dataset file; `retain_generations`
/// keeps reloaded generations for pool accounting.
mds::Status Deploy(const WorkloadSpec& spec, const std::string& scratch_dir,
                   bool retain_generations, Deployment* out,
                   SetupTimes* times);

// --- load ------------------------------------------------------------------

/// One reply kept for the oracle.
struct Checked {
  Query query;
  uint64_t count = 0;
  std::vector<int64_t> objids;
  std::vector<mds::protocol::WireNeighbor> neighbors;
};

/// The window is cut into this many equal slices by reply time. The
/// end-to-end figures are medians over the slices, so a burst of noise
/// from other tenants of the host in one slice does not move them.
inline constexpr size_t kSlices = 5;

struct WindowResult {
  /// Latency of every successful reply, by slice and operation.
  Samples latency_us[kSlices][kNumOps];
  double slice_seconds[kSlices] = {};
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;    // non-transient errors
  uint64_t rejected = 0;  // retryable refusals (overload, draining)
  uint64_t mismatches = 0;  // replies checked inline (hot-pipelined)
  double seconds = 0;
  uint64_t reloads = 0;
  Samples reload_ms;
  /// Contract violations (a reload that did not advance the epoch, a
  /// client that could not connect); empty when healthy.
  std::vector<std::string> violations;
  std::vector<Checked> checked;  // reservoir sample of replies
  Tracer tracer{false, 0};

  /// Latencies of operation `op` (kNumOps = every operation) over slice
  /// `slice` (kSlices = the whole window).
  Samples Latencies(size_t op = kNumOps, size_t slice = kSlices) const;
  /// Median over slices of the q-th latency percentile of `op`.
  double SliceMedian(size_t op, double q) const;
  /// Median over slices of successful replies per second.
  double SliceThroughput() const;
};

struct WindowOptions {
  double seconds = 1;
  uint64_t stream_seed = 0;
  bool trace = false;
  /// Reservoir size per client and operation; 0 = keep no replies.
  size_t keep_per_op = 0;
  bool reloads = false;
};

/// The hot-pipelined working set and its brute-force counts (empty for
/// the other workloads).
struct HotSet {
  std::vector<Query> boxes;
  std::vector<uint64_t> counts;
};

/// Runs kClients closed-loop clients against the endpoint for the window.
WindowResult RunWindow(const Deployment& d, const WindowOptions& options,
                       const HotSet& hot);

// --- oracle ----------------------------------------------------------------

/// Brute-force count of catalog rows inside `box`.
uint64_t BruteForceCount(const mds::PointSet& points, const mds::Box& box);

/// Checks kept replies: counts by brute force over points(), objid lists
/// against an in-process FullScanPath in clustered order, kNN against
/// KdKnnSearcher::BruteForce in (d2, id) order, and on scatter-4shard the
/// answer bytes against the reference mdsd. Returns the mismatch count;
/// the first mismatch is described in *first.
uint64_t CheckReplies(const Deployment& d, const std::vector<Checked>& replies,
                      std::string* first);

// --- runs ------------------------------------------------------------------

/// What one benchmark run prints as its result line.
struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed + rejected + oracle mismatches
  /// Oracle and contract failures; a run with any is not correct.
  std::vector<std::string> problems;
  MetricSet metrics;
};

/// Everything between set-up and the measured window: scatter-4shard's
/// reference mdsd, the hot set, a warm-up window, and for a cache that
/// only ever misses (mixed-resident) filling the response cache until it
/// evicts, so the window sees the steady-state miss path (probe, insert,
/// evict) and a settled resident set. Warm-up violations go to `out`.
mds::Status Prepare(Deployment* d, uint64_t seed, HotSet* hot,
                    RunOutcome* out);

/// Folds a window's failures, mismatches and contract violations into the
/// outcome and checks `kept` replies against the oracle.
void Account(const Deployment& d, const WindowResult& w, RunOutcome* out);

/// The traced run: replays the workload with spans, then the seeded
/// layer replay and the cost ladder; fills the per-layer metrics and
/// writes the spans to `trace_path`.
mds::Status RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const std::string& scratch_dir,
                      const std::string& trace_path, RunOutcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
