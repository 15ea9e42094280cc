#ifndef MDS_SERVER_COORDINATOR_H_
#define MDS_SERVER_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "geom/box.h"
#include "server/client.h"
#include "server/front_end.h"
#include "server/protocol.h"

namespace mds {

/// One backend mdsd endpoint (numeric IPv4 host).
struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Shard map: shards[i] is the ordered replica list of shard i. Replica 0
/// is preferred; later replicas are failover (and hedge) targets, so list
/// the nearest replica first. Shard i must serve the i-th of shard_count
/// kd-subtree slices of the same catalog — every replica of shard i runs
/// `mdsd --shard-index=i --shard-count=N` with identical --n and --seed.
struct ShardMap {
  std::vector<std::vector<BackendAddress>> shards;
};

/// Parses a shard-map string: shards are separated by ';' or newlines,
/// replicas of one shard by ','. Example ("2 shards x 2 replicas"):
///
///   127.0.0.1:7001,127.0.0.1:7101;127.0.0.1:7002,127.0.0.1:7102
///
/// The same grammar reads a shard-map file (one shard per line; blank
/// lines and '#' comment lines are skipped).
Result<ShardMap> ParseShardMap(const std::string& text);

/// mdsc tuning knobs.
struct CoordinatorConfig {
  /// Loopback TCP port; 0 picks an ephemeral port (Coordinator::port()).
  uint16_t port = 0;
  /// Connections beyond this are accepted and closed immediately.
  size_t max_connections = 256;
  /// Admission cap on concurrently coordinated client requests; beyond it
  /// requests are shed with a retryable kUnavailable, like mdsd.
  size_t max_in_flight = 256;
  /// Client connection idle timer, restarted at every frame boundary: a
  /// client silent (or stalled mid-frame, slow-loris) this long is
  /// closed; 0 = none.
  uint32_t idle_timeout_ms = 30000;
  /// TCP connect bound for backend connections.
  uint64_t connect_timeout_ms = 2000;
  /// Deadline applied to backend sub-requests when the client request
  /// carries none: a wedged backend must not stall a fan-out forever —
  /// the bound is what lets failover and hedging act.
  uint32_t sub_deadline_ms = 10000;
  /// Fixed hedge delay in milliseconds; 0 = adaptive (a shard's observed
  /// p99 sub-request latency, once hedge_min_samples successes have been
  /// recorded — before that, no hedging). Hedging also requires the shard
  /// to have >= 2 replicas.
  uint32_t hedge_delay_ms = 0;
  uint64_t hedge_min_samples = 64;
  /// Base/cap of the per-replica breaker open interval: after the breaker
  /// opens (breaker_failure_threshold consecutive failures) the replica
  /// is skipped for an equal-jittered exponential interval derived from
  /// min(replica_backoff_ms * 2^(k-1), replica_backoff_max_ms). All
  /// replicas of a shard open => they are tried anyway (better a
  /// likely-failing attempt than certain failure).
  uint32_t replica_backoff_ms = 500;
  uint32_t replica_backoff_max_ms = 8000;
  /// Consecutive failures that open a replica's circuit breaker. While
  /// open the replica costs zero request-path attempts; when the jittered
  /// backoff expires, a single half-open probe attempt is admitted and
  /// its outcome closes or re-opens the breaker.
  uint32_t breaker_failure_threshold = 5;
  /// Token-bucket retry budget per shard: every primary attempt accrues
  /// retry_budget_ratio tokens (capped at retry_budget_cap) and every
  /// failover or hedge leg spends one. An unhealthy shard can therefore
  /// amplify traffic by at most ~ratio in steady state instead of
  /// replica-count-fold. The bucket starts full so cold-start failovers
  /// are never denied.
  double retry_budget_ratio = 0.1;
  uint32_t retry_budget_cap = 32;
  /// Client-side exchange slack for backend legs (QueryOptions::
  /// exchange_slack_ms): the leg's read deadline fires this soon after
  /// the leg's deadline share, so a blackholed backend costs ~budget+
  /// leg_slack_ms, not budget+2s.
  uint32_t leg_slack_ms = 25;
  /// Seed for backoff jitter; 0 = seeded from entropy. Fixed seeds make
  /// chaos-campaign runs reproducible.
  uint64_t jitter_seed = 0;
  /// Backend-leg threads shared by all in-flight fan-outs (the leg pool);
  /// 0 = min(32, max(4, 2 * total replicas)). The front end itself needs
  /// no worker threads: mdsc's request handling never blocks.
  unsigned fanout_threads = 0;
  /// Idle pooled connections kept per replica.
  size_t pool_connections_per_replica = 8;
};

// --- merge helpers ---------------------------------------------------------
//
// Pure functions, unit-tested directly (coordinator_test).

/// k-way merge of per-shard kNN replies: each input list is sorted
/// ascending by (squared_distance, id) — the order a single mdsd returns —
/// and the output is the first min(k, total) of the merged union in that
/// same order. Ties across shards break by id, exactly like the engine's
/// Neighbor::operator<, so the merge of shard replies equals a single
/// server's reply bit for bit. Empty inputs are fine.
std::vector<protocol::WireNeighbor> MergeKnnNeighbors(
    const std::vector<std::vector<protocol::WireNeighbor>>& per_shard,
    uint32_t k);

/// Folds shard box-like replies in shard order: row_count and the I/O
/// counters sum, objids concatenate (shard order == global clustered
/// order, so concatenation is the single-server order), degraded ORs,
/// chosen_path collapses to the common value or "mixed". `limit` != 0
/// truncates the concatenated objids, matching the single server's TOP.
protocol::QueryReply MergeQueryReplies(
    std::vector<protocol::QueryReply> per_shard, uint64_t limit);

// ---------------------------------------------------------------------------

/// mdsc — the shard coordinator: a server-shaped front end that speaks the
/// exact mdsd wire protocol to its clients and fans each query out to
/// the backend shards (each possibly replicated) that can hold part of
/// its answer, over pooled QueryClient connections, merging the replies.
///
/// Routing and merge semantics (DESIGN.md "Scale-out"):
///  - Every mdsd publishes its routing box (protocol::RoutingBox: the
///    tight bounding box of its rows, sent only when they are all
///    finite) on Health and Reload replies. The coordinator keeps one
///    immutable snapshot of the boxes, a box or "unknown" per shard, and
///    every scatter routes on the snapshot it read when it started.
///  - kPointCount / kBoxQuery / kTableSample: legs go only to shards
///    whose box meets the query box or is unknown (at least one shard:
///    the lowest index when none meets it). A shard with no row in the
///    box adds nothing to any of these replies, so skipping it is exact.
///    The limit goes to every leg unchanged (each shard's contribution to
///    a TOP(limit) is at most limit rows); counts sum, objids concatenate
///    in shard order.
///  - kKnn: per-shard k_i = min(k, shard rows), in two waves. Wave one
///    asks the shard with the least MINDIST² from the probe to its box
///    (an unknown box counts as 0; lowest index on ties). Its reply's
///    k-th d2, m (+inf when it returned fewer than k rows or failed),
///    bounds the rest: wave two asks every other shard whose MINDIST² <=
///    m·(1 + 1e-9), the paper's §3.3 pruning across machines. A shard
///    beyond the bound holds no row at d2 <= m, so it cannot displace a
///    (d2, id) of the global top k. The replies k-way merge by
///    (squared_distance, id). k > total served rows is InvalidArgument,
///    exactly like a single server.
///  - A skipped shard's call is pre-completed: it counts as answered in
///    shards_answered/shards_mask with zero I/O counters, adds nothing to
///    chosen_path, gets no hedge timer and counts one `pruned`.
///  - kTableSample: page sampling is physical-layout-dependent, so the
///    sampled rows match a single server's distribution and determinism
///    (same seed => same reply through the same topology) but not its
///    exact row set. The merge concatenates and truncates to n.
///  - kHealth / kStats: answered by the coordinator itself; stats carry
///    per-shard routing counters (ShardStatsEntry).
///  - kReload: broadcast to EVERY replica of EVERY shard (a fleet where
///    only some replicas swapped would answer the same query differently
///    depending on routing); all must succeed or the reload fails with
///    the first refusal. Every box is "unknown" while the broadcast runs
///    and after a failed one; a successful one installs the boxes of the
///    replies (per shard, the union over its replicas). The merged reply
///    carries the min old/new epochs over the fleet and the summed
///    per-shard served_rows.
///
/// Failover: replicas are tried in preference order; an attempt that
/// fails with a retryable transport-or-shed status (kUnavailable, kIOError,
/// kNotFound) or a leg deadline expiry moves to the next admitted replica
/// and counts one failover. Non-retryable backend errors (e.g.
/// InvalidArgument) return immediately. Every extra leg (failover or
/// hedge) spends a token from the shard's retry budget and must fit in
/// the request's remaining deadline budget; breaker_failure_threshold
/// consecutive failures open a replica's circuit breaker, after which it
/// costs one half-open probe per jittered backoff interval instead of
/// per-request timeouts. Requests carrying kFlagAllowPartial degrade to a
/// merged reply from the surviving shards (kFlagPartial + kFlagDegraded,
/// shard coverage on the wire) when a shard is exhausted.
///
/// Hedging: while a shard's primary attempt is outstanding, a hedge timer
/// waits the hedge delay (fixed, or the shard's observed p99); on expiry
/// a second attempt starts on the next replica, and the first success
/// wins. Hedges fired/won are counted per shard.
///
/// Threading model: mdsc runs on mdsd's FrontEnd (one epoll I/O thread
/// for every client connection) as its scatter-gather Backend. Execute
/// never blocks, so it runs on the I/O thread: it decodes a request and
/// submits one blocking QueryClient leg per shard to the leg pool
/// (`fanout_threads`), plus a hedge timer (TaskPool::SubmitAt) that holds
/// no thread while it waits. The leg that completes the last shard merges
/// and completes the request; no thread waits for a whole fan-out, and
/// kReload's broadcast runs on the leg pool too. The thread count is
/// therefore fixed at Start whatever the number of clients. Drain mirrors
/// mdsd; Shutdown() drains and joins the front end, then runs any
/// still-queued losing hedge legs and joins the leg pool.
class Coordinator : private FrontEnd::Backend {
 public:
  Coordinator(const ShardMap& map, const CoordinatorConfig& config);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Probes every shard (first reachable replica wins, and its routing
  /// box becomes the shard's), validates that dimensions agree across
  /// shards, binds the port and starts the front end and the leg pool.
  /// Fails if any shard has no reachable replica.
  Status Start();

  /// Bound port (valid after Start).
  uint16_t port() const { return front_.port(); }

  bool draining() const { return front_.draining(); }

  /// Stops accepting connections and sheds new query requests; admitted
  /// fan-outs complete. Safe to call more than once.
  void RequestDrain() { front_.RequestDrain(); }

  /// Full graceful stop. Idempotent.
  void Shutdown();

  /// The same snapshot a kStats request returns (front-end counters plus
  /// per-shard routing counters).
  protocol::ServerStatsSnapshot Stats() const { return front_.Stats(); }

  /// Total rows served across shards / their common dimension (valid
  /// after Start; served_rows can move when a kReload lands a new
  /// generation).
  uint64_t served_rows() const { return served_rows_.load(); }
  uint32_t dim() const { return dim_; }

 private:
  using Request = FrontEnd::Request;
  using Batch = FrontEnd::Batch;

  /// One backend replica: its address, a small pool of idle connections,
  /// and circuit-breaker state. The breaker is derived state:
  /// consecutive_failures < breaker_failure_threshold = closed;
  /// otherwise open until retry_at_ms, then half-open (one probe admitted
  /// via the `probing` flag until its outcome lands).
  struct Replica {
    BackendAddress addr;
    std::mutex mu;
    std::vector<QueryClient> idle;  // pooled connections, guarded by mu
    std::atomic<uint32_t> consecutive_failures{0};
    /// Steady-clock milliseconds before which an open breaker skips the
    /// replica (0 = never failed).
    std::atomic<int64_t> retry_at_ms{0};
    /// True while a half-open probe attempt is in flight.
    std::atomic<bool> probing{false};
  };

  /// One shard: its replicas plus routing counters and the retry token
  /// bucket (milli-tokens so a fractional accrual ratio stays integral).
  struct Shard {
    std::vector<std::unique_ptr<Replica>> replicas;
    /// From the Start() probe; re-stamped by a successful kReload
    /// broadcast (the I/O thread reads it while queries validate k).
    std::atomic<uint64_t> served_rows{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> backend_errors{0};
    std::atomic<uint64_t> failovers{0};
    std::atomic<uint64_t> hedges_fired{0};
    std::atomic<uint64_t> hedges_won{0};
    std::atomic<uint64_t> retries_denied{0};
    std::atomic<uint64_t> breaker_short_circuits{0};
    std::atomic<uint64_t> pruned{0};  ///< scatters that skipped this shard
    std::atomic<int64_t> retry_budget_milli{0};  // filled by the ctor
    Histogram latency_us;  // successful sub-request round trips
  };

  /// One decoded client query request, in the shape sub-requests are
  /// re-issued in (per-shard kNN k varies, so shards cannot share one
  /// encoded body).
  struct SubRequest {
    protocol::MessageType type = protocol::MessageType::kPointCount;
    QueryOptions options;
    /// When the client frame was decoded — the zero point the deadline
    /// budget is decremented from before every leg.
    std::chrono::steady_clock::time_point arrival;
    /// The client's own deadline_ms (0 = none): the end-to-end budget.
    /// options.deadline_ms is recomputed per leg from what remains.
    uint32_t budget_ms = 0;
    /// Client sent kFlagAllowPartial: exhausted shards degrade the reply
    /// instead of failing it.
    bool allow_partial = false;
    std::vector<double> lo, hi;  // box-like
    uint64_t limit = 0;
    std::vector<double> point;  // kNN
    uint32_t k = 0;
    double percent = 1.0;  // sample
    uint64_t n = 1;
    uint64_t sample_seed = 0;
  };

  /// What one backend attempt returns.
  struct SubReply {
    protocol::QueryReply query;                     // box-like types
    std::vector<protocol::WireNeighbor> neighbors;  // kKnn
  };

  /// The routing snapshot: per shard, its box or nullopt ("unknown",
  /// always contacted). Immutable once published; swapped whole.
  using Routing = std::vector<std::optional<Box>>;

  /// Per-shard slot of one fan-out: attempt jobs complete it under mu.
  struct ShardCall {
    Status status = Status::OK();
    SubReply reply;
    bool done = false;     ///< a success landed, or every attempt failed
    /// Pre-completed without a leg: the routing box rules the shard out
    /// (a kNN wave two may still reopen it).
    bool skipped = false;
    int outstanding = 0;   ///< attempts still running
    /// Clients with an exchange in flight for this call, registered under
    /// Scatter::mu. Whichever attempt completes the call Abort()s the
    /// rest, so a losing hedge leg fails its read promptly instead of
    /// sitting on a connection with a stale correlated reply due.
    std::vector<QueryClient*> inflight;
  };

  /// One client request's scatter state, shared by its attempt jobs and
  /// hedge timers; the attempt that completes the last call merges the
  /// shard replies and answers the client.
  struct Scatter {
    Request client;                 ///< the request being answered
    SubRequest req;                 ///< immutable once the legs start
    std::vector<uint32_t> shard_k;  ///< per-shard kNN k (clamped to rows)
    /// kNN: per-shard MINDIST² from the probe to the shard's box, and the
    /// wave-one shard whose completion opens wave two (kNoShard once it
    /// has, and for every other type).
    std::vector<double> mindist2;
    size_t wave_one = kNoShard;
    std::mutex mu;
    std::vector<ShardCall> calls;
    size_t done_count = 0;
  };
  static constexpr size_t kNoShard = ~size_t{0};

  // --- FrontEnd::Backend ---------------------------------------------------
  void Bind(Request*) const override {}
  protocol::HealthReply Health(const Request& req) const override;
  /// Leg timeouts, partial replies and the per-shard routing counters.
  void AddStats(protocol::ServerStatsSnapshot* stats) const override;
  /// I/O thread: decodes queries and submits their legs; never blocks.
  void Execute(Batch* batch) override;
  bool ExecutesInline() const override { return true; }

  /// Broadcasts a kReload to every replica of every shard; on success
  /// re-stamps the per-shard and total served_rows and installs the
  /// replies' routing boxes (every box is unknown meanwhile).
  void HandleReload(const Request& req);

  /// Decodes and validates the request body into a SubRequest template
  /// (per-shard k is filled in at scatter time).
  Status DecodeSubRequest(const protocol::MessageHeader& header,
                          const uint8_t* body, size_t body_len,
                          uint32_t deadline_ms, SubRequest* out);

  /// Shard-coverage summary of one scatter, reported on the reply wire.
  struct ScatterOutcome {
    uint32_t answered = 0;
    uint32_t total = 0;
    uint64_t mask = 0;       ///< bit s set = shard s answered
    bool partial = false;    ///< answered < total and the reply is usable
  };

  /// Decodes and validates one query request, routes it on the current
  /// routing snapshot, pre-completes the skipped shards' calls and starts
  /// the rest (StartLegs). Returns at once.
  void StartScatter(Request client);
  /// The first wave's shards (ascending): for box-like types every shard
  /// whose box meets the query box, for kNN the nearest shard (filling
  /// scatter->mindist2 and wave_one).
  static std::vector<size_t> FirstWave(const Routing& routing,
                                       Scatter* scatter);
  /// Under scatter->mu, when the wave-one call completes: reopens every
  /// skipped call within the wave-one k-th distance and returns them.
  static std::vector<size_t> OpenSecondWave(Scatter* scatter);
  /// Submits one attempt per listed shard to the leg pool, plus a timed
  /// hedge check for each shard that may hedge. Their calls must already
  /// be open (outstanding = 1).
  void StartLegs(const std::shared_ptr<Scatter>& scatter,
                 const std::vector<size_t>& shards);
  /// Hedge timer: on expiry, while the shard's call is still open, starts
  /// a second attempt on the next replica (first success wins).
  void MaybeHedge(const std::shared_ptr<Scatter>& scatter, size_t shard);
  /// Merges the shard replies (or fails the request, or degrades it to the
  /// survivors when allowed) and completes the client request.
  void FinishScatter(Scatter* scatter);

  /// One attempt: walk the shard's replicas (from the next one, for a
  /// hedge), failing over on retryable errors while the deadline and
  /// retry budgets allow, and complete the shard's call; the attempt that
  /// completes the last call finishes the scatter.
  void RunAttempt(const std::shared_ptr<Scatter>& scatter, size_t shard,
                  bool is_hedge);
  /// One replica exchange under `leg_options` (the per-leg deadline
  /// share). Returns the backend's status; *aborted reports that another
  /// attempt completed the call while this exchange ran — an aborted
  /// exchange's connection is never pooled and its outcome must not
  /// count against the replica.
  Status AttemptReplica(Shard* shard, Replica* replica, const SubRequest& req,
                        const QueryOptions& leg_options, uint32_t k_for_shard,
                        SubReply* out, Scatter* scatter, size_t call_index,
                        bool* aborted);

  /// Remaining end-to-end deadline budget for one more leg. False = the
  /// budget is spent (only possible when the request carried a deadline).
  bool LegDeadline(const SubRequest& req, uint32_t* leg_deadline_ms) const;

  /// Circuit-breaker admission for one replica.
  enum class Admit {
    kClosed,  ///< healthy: admit
    kProbe,   ///< half-open: admit one probe (caller must EndProbe)
    kSkip,    ///< open (or a probe is already in flight): skip
  };
  Admit AdmitReplica(Replica* replica);
  void EndProbe(Replica* replica) {
    replica->probing.store(false, std::memory_order_release);
  }

  /// Token-bucket retry budget: accrued per primary attempt, spent (one
  /// token) per failover or hedge leg.
  void AccrueRetryBudget(Shard* shard);
  bool SpendRetryToken(Shard* shard);

  Result<QueryClient> AcquireClient(Replica* replica);
  void ReleaseClient(Replica* replica, QueryClient client);
  void MarkReplicaFailure(Replica* replica);
  void MarkReplicaSuccess(Replica* replica);

  /// Hedge delay for a shard; returns false when hedging should not fire
  /// (single replica, or adaptive mode without enough samples).
  bool HedgeDelay(const Shard& shard, std::chrono::microseconds* delay) const;

  /// The current routing snapshot (I/O thread reads, leg threads swap).
  std::shared_ptr<const Routing> routing() const;
  void SetRouting(std::shared_ptr<const Routing> routing);

  CoordinatorConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex routing_mu_;
  std::shared_ptr<const Routing> routing_;  // guarded by routing_mu_
  std::atomic<uint64_t> served_rows_{0};
  uint32_t dim_ = 0;
  /// Serializes whole-fleet reload broadcasts (mirrors QueryServer's
  /// per-server reload_mu_).
  std::mutex reload_mu_;
  const unsigned leg_threads_;  // fanout_threads, or its derived default
  std::unique_ptr<TaskPool> legs_;  // backend legs

  /// Backend legs whose read deadline fired (slow-but-alive replicas).
  std::atomic<uint64_t> leg_timeouts_{0};
  /// Replies answered from a strict subset of shards (kFlagPartial).
  std::atomic<uint64_t> partial_replies_{0};
  /// kNN scatters whose wave one reopened at least one other shard.
  std::atomic<uint64_t> knn_second_waves_{0};

  /// Backoff jitter source (common/rng.h is not thread-safe; attempts on
  /// many leg threads mark failures concurrently).
  mutable std::mutex rng_mu_;
  mutable Rng rng_;

  FrontEnd front_;
};

}  // namespace mds

#endif  // MDS_SERVER_COORDINATOR_H_
