#ifndef MDS_SERVER_FRONT_END_H_
#define MDS_SERVER_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/socket.h"
#include "server/protocol.h"
#include "server/response_cache.h"
#include "server/wire.h"

namespace mds {

class ServedDataset;

/// Serving front-end tuning knobs: the mdsd server's configuration, and
/// the shape mdsc derives from its CoordinatorConfig.
struct ServerConfig {
  /// Loopback TCP port; 0 picks an ephemeral port (see QueryServer::port).
  uint16_t port = 0;
  /// Query worker threads; 0 = QueryThreads() (MDS_QUERY_THREADS).
  unsigned num_workers = 0;
  /// Admission-control cap: maximum requests admitted (queued + executing)
  /// at once. Arrivals beyond the cap are rejected immediately with a
  /// retryable kUnavailable reply — the server sheds load, it never
  /// buffers unboundedly or hangs.
  size_t max_in_flight = 64;
  /// Connections beyond this are accepted and closed immediately.
  size_t max_connections = 256;
  /// Applied to requests that carry no deadline; 0 = none.
  uint32_t default_deadline_ms = 0;
  /// Per-frame read deadline on every connection: a client that stalls
  /// mid-frame (slow-loris) or goes silent longer than this is closed.
  /// 0 = no timeout.
  uint32_t idle_timeout_ms = 30000;
  /// Response-cache capacity in bytes; 0 disables caching (the library
  /// default, so embedded tests see every request execute). The mdsd
  /// binary enables it by default (--cache-bytes / --no-cache).
  size_t cache_bytes = 0;
  /// Reactor I/O threads (event loops); connections are spread round-robin
  /// across them. 0 = 1. One loop comfortably serves thousands of
  /// connections; more loops only help when frame parsing itself saturates
  /// a core.
  unsigned io_threads = 1;
  /// Upper bound on contiguous pipelined cache-miss box-like requests from
  /// one connection handed to a worker together (one handoff; the backend
  /// runs them one by one, in order). 1 disables ganging (every request
  /// is its own handoff).
  size_t pipeline_batch_max = 64;
  /// Test hook: treat the first N accepted connections as if accept()
  /// had failed with EMFILE (close them, count accept_errors, back off).
  /// Exercises the fd-exhaustion path deterministically.
  size_t debug_fail_first_accepts = 0;
};

/// The serving front end shared by mdsd (QueryServer) and mdsc
/// (Coordinator): everything between the listening socket and a decoded,
/// admitted request, and everything from an encoded reply back to the
/// wire. What a request *means* is the Backend's business.
///
/// Threading model (DESIGN.md "Serving layer"):
///  - `io_threads` reactor threads (default one), each running an epoll
///    EventLoop; loop 0 owns the non-blocking listener (with EMFILE
///    backoff), and every connection lives on exactly one loop
///    (BufferedSocket, idle and write-stall timers, write queue). Thread
///    count is independent of connection count.
///  - the I/O thread decodes frames in place; health/stats and response-
///    cache hits are answered inline (they must work while the server is
///    saturated); query requests pass admission control and are submitted
///    to a TaskPool of `num_workers` threads (TaskPool::Submit) —
///    contiguous pipelined gangable cache misses from one readiness event
///    ride one batch. A backend whose Execute never blocks
///    (ExecutesInline, mdsc's) gets no workers: it runs on the I/O thread.
///  - a worker answers requests whose deadline expired in the queue, hands
///    the rest to Backend::Execute, and the backend completes each request
///    through Complete(), which posts the encoded reply back to the
///    connection's loop; the loop flushes it with writev (no worker ever
///    blocks on a slow client).
///
/// Admission control: at most max_in_flight requests are in the system;
/// beyond that, arrivals get an immediate retryable kUnavailable.
///
/// Graceful drain: RequestDrain() stops accepting connections and rejects
/// new query requests (kUnavailable + kFlagDraining) while every admitted
/// request still executes and replies. Shutdown() drains, waits for
/// in-flight work, flushes pending replies, then joins all threads.
///
/// Thread safety: Start/RequestDrain/Shutdown may be called from any
/// thread; Start exactly once per started epoch. Stats() is safe at any
/// time. The backend must outlive the front end's Shutdown().
class FrontEnd {
 public:
  /// Per-connection reactor state (defined in front_end.cc).
  struct Conn;

  /// One decoded request frame.
  struct Request {
    std::shared_ptr<Conn> conn;
    /// The local engine's dataset generation, captured by Backend::Bind
    /// at parse time (null behind the coordinator).
    std::shared_ptr<const ServedDataset> dataset;
    protocol::MessageHeader header;
    std::vector<uint8_t> payload;  // full payload; body starts at body_offset
    size_t body_offset = 0;
    uint32_t deadline_ms = 0;  // effective (request or config default)
    std::chrono::steady_clock::time_point arrival;
    /// Response-cache epoch, set by Backend::Bind together with the
    /// snapshot. On a cache miss the probe tags the request to populate
    /// the cache under this epoch (an epoch bump between probe and
    /// populate strands the entry, where it can never serve a stale hit).
    uint64_t cache_epoch = 0;
    bool cache_populate = false;
    /// True once the request passed admission control.
    bool admitted = false;

    const uint8_t* body() const { return payload.data() + body_offset; }
    size_t body_size() const { return payload.size() - body_offset; }
  };

  /// One unit of worker execution: admitted requests from one connection
  /// (usually a singleton; more for contiguous pipelined cache misses).
  using Batch = std::vector<Request>;

  /// What the front end serves.
  class Backend {
   public:
    virtual ~Backend() = default;
    /// I/O thread, once per decoded request: captures the state the
    /// request executes against (and its cache epoch) in one consistent
    /// step.
    virtual void Bind(Request* req) const = 0;
    /// I/O thread: the kHealth body (the front end sets `draining`).
    virtual protocol::HealthReply Health(const Request& req) const = 0;
    /// Adds the backend's own fields to a stats snapshot.
    virtual void AddStats(protocol::ServerStatsSnapshot* stats) const = 0;
    /// Executes admitted, unexpired requests; every one must be completed
    /// through FrontEnd::Complete exactly once, from any thread, now or
    /// later. Runs on a worker thread, or on the I/O thread when
    /// ExecutesInline().
    virtual void Execute(Batch* batch) = 0;
    /// True for a backend whose Execute never blocks (it only hands work
    /// to threads of its own): the front end then runs it on the I/O
    /// thread and starts no workers, sparing every request two thread
    /// handoffs.
    virtual bool ExecutesInline() const { return false; }
  };

  FrontEnd(Backend* backend, const ServerConfig& config);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the port and starts the I/O and worker threads.
  Status Start();

  /// Bound port (valid after Start; the ephemeral port when config.port=0).
  uint16_t port() const { return port_; }

  bool draining() const { return state_.load() != State::kRunning; }

  /// Stops admitting new work; in-flight requests keep executing. Safe to
  /// call more than once.
  void RequestDrain();

  /// Full graceful stop: drain, complete in-flight requests, flush their
  /// replies, join all threads, close all connections. Idempotent.
  void Shutdown();

  /// Point-in-time counters (the same snapshot a kStats request returns).
  protocol::ServerStatsSnapshot Stats() const;

  /// Completes an admitted request: records its latency and outcome, then
  /// serializes the reply (status + body encoded by `encode_body` when
  /// status is OK) and posts it to the connection's loop, which releases
  /// the admission slot when it takes the reply (DeliverReply), also when
  /// the connection has closed. Counters are final before the reply is
  /// enqueued, so a client that has seen its reply sees it in a subsequent
  /// stats request; once Shutdown's drain sees nothing in flight, every
  /// reply has been handed to its loop. When `cacheable_reply` and the
  /// request was tagged for population, the encoded reply enters the
  /// response cache before it is enqueued.
  template <typename EncodeBody>
  void Complete(const Request& req, const Status& status,
                uint32_t extra_flags, bool cacheable_reply,
                EncodeBody&& encode_body) {
    CountReply(req, status);
    WriteReply(req, status, extra_flags, cacheable_reply,
               std::forward<EncodeBody>(encode_body));
  }
  void CompleteError(const Request& req, const Status& status) {
    Complete(req, status, 0, /*cacheable_reply=*/false, [](WireWriter*) {});
  }

 private:
  enum class State { kRunning, kDraining, kStopped };

  struct IoLoop;
  struct ReplyFrame;

  // --- reactor path (loop threads) ---------------------------------------
  void OnAcceptReady();
  void BackOffAccept();
  void AdoptConnection(Socket sock);
  void RegisterConnection(IoLoop* home, std::shared_ptr<Conn> conn);
  void OnConnEvent(const std::shared_ptr<Conn>& conn, uint32_t ready);
  /// Parses complete frames out of the connection's read buffer,
  /// dispatching each; gangs admitted query requests. Returns false when
  /// reading stopped (protocol violation).
  bool ProcessFrames(const std::shared_ptr<Conn>& conn, Batch* gang);
  /// Dispatches one decoded frame payload. Returns false when the
  /// connection must stop reading (header violation).
  bool HandleFrame(const std::shared_ptr<Conn>& conn,
                   std::vector<uint8_t> payload, Batch* gang);
  void FlushGang(Batch* gang);
  void EnqueueBatch(Batch batch);
  void ArmIdleTimer(const std::shared_ptr<Conn>& conn);
  /// Flushes the connection's write queue, managing EPOLLOUT interest and
  /// the write-stall timer; closes on error.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Logical close (see Conn::read_eof): closes outright once no admitted
  /// replies or queued writes remain.
  void StopReading(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Loop-thread delivery of an encoded reply frame: releases an admitted
  /// request's slot, then queues head then tail back to back (one writev
  /// gathers both; no payload copy).
  void DeliverReply(const std::shared_ptr<Conn>& conn, ReplyFrame frame,
                    bool admitted);
  /// Routes an encoded reply frame to the connection's loop (direct when
  /// already on it, Post otherwise).
  void EnqueueReply(const std::shared_ptr<Conn>& conn, ReplyFrame frame,
                    bool admitted);
  void ShutdownLoopTask(IoLoop* io);
  void CheckLoopDrained(IoLoop* io);
  /// Closes every connection still on the loop and stops it.
  void StopLoop(IoLoop* io);

  void HandleHealth(const Request& req);  // loop thread
  void HandleStats(const Request& req);   // loop thread

  /// I/O-thread fast path: serves `req` from the response cache when a
  /// memoized reply exists. Hits bypass admission control, the queue and
  /// the deadline machinery entirely. Returns true when the request was
  /// answered here (hit) — the caller must not enqueue it.
  bool TryServeFromCache(Request* req);

  /// Worker thread: answers requests whose deadline expired while queued,
  /// then hands the rest to the backend.
  void RunBatch(Batch* batch);
  bool Expired(const Request& req) const;

  template <typename EncodeBody>
  void WriteReply(const Request& req, const Status& status,
                  uint32_t extra_flags, bool cacheable_reply,
                  EncodeBody&& encode_body) {
    std::vector<uint8_t> payload = ReplyPrefix(req, status, extra_flags);
    if (status.ok()) {
      WireWriter w(&payload);
      encode_body(&w);
    }
    SendReply(req, payload, extra_flags, cacheable_reply);
  }
  void WriteErrorReply(const Request& req, const Status& status,
                       uint32_t extra_flags) {
    WriteReply(req, status, extra_flags, /*cacheable_reply=*/false,
               [](WireWriter*) {});
  }
  /// The reply payload up to the body: message header + status.
  static std::vector<uint8_t> ReplyPrefix(const Request& req,
                                          const Status& status,
                                          uint32_t extra_flags);
  /// Moves the encoded payload's tail into a slab slice, populates the
  /// cache when tagged, frames it and enqueues it on the connection.
  void SendReply(const Request& req, const std::vector<uint8_t>& payload,
                 uint32_t extra_flags, bool cacheable_reply);

  /// Records a reply's latency and outcome counters.
  void CountReply(const Request& req, const Status& status);
  /// Releases one admitted request's admission slot.
  void ReleaseSlot();

  Backend* backend_;
  ServerConfig config_;
  uint16_t port_ = 0;

  TcpListener listener_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  size_t next_loop_ = 0;  // loop-0 thread only (round-robin assignment)

  std::unique_ptr<TaskPool> workers_;

  std::atomic<State> state_{State::kStopped};
  bool started_ = false;

  // Accept-backoff state (loop-0 thread only; accept_rng_ jitters the
  // re-arm interval and is therefore fine unguarded).
  bool listener_registered_ = false;
  uint64_t accept_backoff_ms_ = 0;
  size_t debug_fail_remaining_ = 0;
  Rng accept_rng_{std::random_device{}()};

  // In-flight accounting (admission control).
  mutable std::mutex admit_mu_;
  std::condition_variable drained_cv_;  // Shutdown waits for in-flight == 0
  size_t in_flight_ = 0;  // queued + executing requests, guarded by admit_mu_

  std::atomic<size_t> open_connections_{0};

  // Counters (relaxed atomics; aggregated into ServerStatsSnapshot).
  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> accept_errors{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> requests_total{0};
    std::atomic<uint64_t> replies_ok{0};
    std::atomic<uint64_t> replies_error{0};
    std::atomic<uint64_t> rejected_overload{0};
    std::atomic<uint64_t> rejected_draining{0};
    std::atomic<uint64_t> deadline_timeouts{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> in_flight_peak{0};
    /// Post-encode payload memcpys on the reply path: one per executed
    /// (miss) reply when its scratch encoding moves into a slab slice,
    /// zero per cache hit. The zero-copy regression gauge — a pure-hit
    /// workload must not move it.
    std::atomic<uint64_t> reply_tail_copies{0};
    std::atomic<uint64_t> type_errors[protocol::kNumRequestTypes] = {};
  };
  mutable Counters counters_;
  Histogram latency_us_[protocol::kNumRequestTypes];
  // Response cache (null when config.cache_bytes == 0). Probed on I/O
  // threads, populated on workers; thread-safe by construction.
  std::unique_ptr<ResponseCache> cache_;
};

}  // namespace mds

#endif  // MDS_SERVER_FRONT_END_H_
