#ifndef MDS_SERVER_SERVER_H_
#define MDS_SERVER_SERVER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "server/dataset.h"
#include "server/front_end.h"
#include "server/protocol.h"

namespace mds {

/// The mdsd query server: the local engine behind the serving FrontEnd.
///
/// The front end (front_end.h) owns the reactor, framing, admission,
/// drain, counters, the response cache and reply delivery. This class is
/// its local-engine Backend: every request binds the served dataset
/// generation at parse time; workers execute box-like requests through
/// QueryPlanner/AccessPath, kNN through the kd-tree searcher, and kReload
/// through Reload() — a pipelined gang request by request, in order,
/// each on the same path a lone request takes. Up to `num_workers`
/// requests execute at once, always on worker threads, never on an I/O
/// thread.
///
/// Admission control: at most max_in_flight requests are in the system;
/// beyond that, arrivals get an immediate retryable kUnavailable. Each
/// request may carry a deadline — a request whose deadline expires while
/// queued is answered kUnavailable without executing.
///
/// Graceful drain: RequestDrain() stops accepting connections and rejects
/// new query requests (kUnavailable + kFlagDraining) while every admitted
/// request still executes and replies. Shutdown() drains, waits for
/// in-flight work, flushes pending replies, then joins all threads.
/// SIGTERM handling is the binary's job (see mdsd_main.cc): it calls
/// Shutdown().
///
/// Thread safety: Start/RequestDrain/Shutdown may be called from any
/// thread; Start exactly once per started epoch. Stats() is safe at any
/// time.
class QueryServer : private FrontEnd::Backend {
 public:
  /// Serves `dataset` as the initial generation. The server holds the
  /// dataset as an RCU-style snapshot: every request captures the current
  /// shared_ptr at parse time and executes against it even if a Reload
  /// swaps the served generation mid-flight.
  QueryServer(std::shared_ptr<const ServedDataset> dataset,
              const ServerConfig& config);
  ~QueryServer() override;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds the port and starts the I/O and worker threads.
  Status Start();

  /// Bound port (valid after Start; the ephemeral port when config.port=0).
  uint16_t port() const { return front_.port(); }

  bool draining() const { return front_.draining(); }

  /// Stops admitting new work; in-flight requests keep executing. Safe to
  /// call more than once.
  void RequestDrain() { front_.RequestDrain(); }

  /// Full graceful stop: drain, complete in-flight requests, flush their
  /// replies, join all threads, close all connections. Idempotent.
  void Shutdown() { front_.Shutdown(); }

  /// Point-in-time server counters (the same snapshot a kStats request
  /// returns).
  protocol::ServerStatsSnapshot Stats() const { return front_.Stats(); }

  /// Produces the next dataset generation for a hot swap. `path` names a
  /// dataset file on this machine; empty means "reload the current
  /// source" (same file, or a rebuild of the same synthetic config — a
  /// no-op reload whose replies are byte-identical). The handler runs on
  /// a worker thread and may take seconds; it must not touch the server.
  using ReloadHandler =
      std::function<Result<std::shared_ptr<ServedDataset>>(
          const std::string& path)>;
  void SetReloadHandler(ReloadHandler handler);

  /// Hot-swaps the served dataset (kReload requests and SIGHUP both land
  /// here): runs the reload handler, validates the new generation against
  /// the live one (dimension and shard slice must match — the same
  /// refusal taxonomy as the mdsc startup probe), then publishes it:
  /// swap the snapshot pointer first, bump the (adopted) epoch second.
  /// That order means a request racing the swap can at worst populate the
  /// response cache with a still-correct old-generation reply under the
  /// old epoch key, where the bump strands it; the reverse order could
  /// cache an old reply under the new epoch, a persistent lie. In-flight
  /// requests finish on their captured snapshot; the old generation is
  /// freed when its last request completes. Reloads are serialized;
  /// queries are never blocked by the (slow) load, only by the brief
  /// pointer swap. Fails with FailedPrecondition when no handler is set
  /// or the new dataset is incompatible — the live dataset is untouched
  /// on every failure path.
  Result<protocol::ReloadReply> Reload(const std::string& path);

 private:
  using Request = FrontEnd::Request;
  using Batch = FrontEnd::Batch;

  // --- FrontEnd::Backend ---------------------------------------------------
  /// Captures the (dataset, epoch) pair under dataset_mu_.
  void Bind(Request* req) const override;
  protocol::HealthReply Health(const Request& req) const override;
  /// Buffer-pool I/O deltas and the dataset epoch.
  void AddStats(protocol::ServerStatsSnapshot* stats) const override;
  /// Runs each request of the batch, in order, through the single-request
  /// path below.
  void Execute(Batch* batch) override;

  // --- request path (worker threads) --------------------------------------
  /// Box-like execution of one request through the planner, and its reply.
  void ExecuteAndReplyBoxLike(Request* req);
  /// Executes one admitted kReload request (the load may take seconds and
  /// must never run on an I/O thread).
  void HandleReload(Request* req);
  Status ExecuteBoxLike(const Request& req, protocol::QueryReply* out);
  Status ExecuteKnn(const Request& req, protocol::KnnReply* out);

  /// The served generation. Guarded by dataset_mu_ together with
  /// pool_at_start_ (the I/O-delta baseline is per-generation); reads are
  /// a brief lock per request, the only writer is Reload's swap.
  mutable std::mutex dataset_mu_;
  std::shared_ptr<const ServedDataset> dataset_;
  ReloadHandler reload_handler_;  // guarded by dataset_mu_
  CounterSnapshot pool_at_start_;  // guarded by dataset_mu_ after Start
  /// Serializes whole reloads (load + validate + swap) without ever
  /// holding dataset_mu_ across the slow load.
  std::mutex reload_mu_;

  FrontEnd front_;
};

}  // namespace mds

#endif  // MDS_SERVER_SERVER_H_
