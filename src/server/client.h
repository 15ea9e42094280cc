#ifndef MDS_SERVER_CLIENT_H_
#define MDS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/socket.h"
#include "geom/box.h"
#include "server/protocol.h"

namespace mds {

/// Synchronous client for the mdsd wire protocol — the library tests,
/// benches and examples speak to the server exclusively through this
/// class, so the protocol has exactly two implementations (server,
/// client) and one codec (protocol.h).
///
/// Thread safety: thread-compatible. One QueryClient owns one connection
/// and one in-flight request at a time; use one client per thread (the
/// throughput bench's closed-loop workers do exactly that).
/// Per-request client options (namespace scope so `= {}` default
/// arguments work; a nested class cannot use its default member
/// initializers in the enclosing class's default arguments).
struct QueryOptions {
  /// Server-side deadline for the request, and the client-side I/O
  /// bound for the exchange (plus slack). 0 = none.
  uint32_t deadline_ms = 0;
  /// Permit a degraded (partial) answer over checksum-failed pages.
  bool skip_corrupt = false;
  /// Planner hints (mutually exclusive; force_full_scan wins).
  bool force_full_scan = false;
  bool force_index = false;
  /// Against mdsc: accept a merged reply from only the surviving shards
  /// (kFlagAllowPartial on the wire) instead of a blanket failure when a
  /// shard is exhausted. Plain mdsd ignores the flag.
  bool allow_partial = false;
  /// Client-side I/O slack added on top of deadline_ms for the exchange
  /// bound. 0 = the default 2000 ms; the mdsc coordinator uses a small
  /// value so a backend leg's read deadline fires close to the leg's
  /// share of the budget rather than 2 s later.
  uint32_t exchange_slack_ms = 0;
};

class QueryClient {
 public:
  using Options = QueryOptions;

  /// Result of a box/sample query, including the server-side I/O
  /// accounting and degradation marker.
  struct QueryResult {
    uint64_t row_count = 0;
    std::vector<int64_t> objids;
    uint64_t rows_scanned = 0;
    uint64_t pages_fetched = 0;
    uint64_t pages_read = 0;
    uint64_t pages_skipped = 0;
    bool degraded = false;
    /// True when a coordinator answered from a strict subset of its
    /// shards (kFlagPartial); counts cover only shards_mask.
    bool partial = false;
    uint32_t shards_answered = 0;
    uint32_t shards_total = 0;  ///< 0 = reply came from a single mdsd
    uint64_t shards_mask = 0;
    std::string chosen_path;
  };

  struct KnnResult {
    std::vector<protocol::WireNeighbor> neighbors;  // ascending distance
    bool degraded = false;
    /// True when one or more shards did not answer: the neighbor list is
    /// exact over shards_mask but possibly non-global.
    bool partial = false;
    uint32_t shards_answered = 0;
    uint32_t shards_total = 0;  ///< 0 = reply came from a single mdsd
    uint64_t shards_mask = 0;
  };

  struct HealthResult {
    bool draining = false;
    uint64_t served_rows = 0;
    uint32_t dim = 0;
    /// The server's routing box (unknown from a coordinator, an older
    /// server, or a dataset with non-finite rows).
    protocol::RoutingBox routing_box;
  };

  /// Connects to an mdsd instance (numeric IPv4 host).
  static Result<QueryClient> Connect(const std::string& host, uint16_t port,
                                     uint64_t connect_timeout_ms = 5000);

  QueryClient(QueryClient&&) = default;
  QueryClient& operator=(QueryClient&&) = default;

  /// Number of stored rows inside `box` (no row payload on the wire).
  Result<uint64_t> PointCount(const Box& box, const Options& options = {});

  /// PointCount with the full reply (row_count plus the I/O accounting and
  /// chosen_path a kBoxQuery reply carries; objids stays empty). The mdsc
  /// coordinator uses this so merged point-count replies keep the same
  /// instrumentation a single server reports.
  Result<QueryResult> PointCountDetailed(const Box& box,
                                         const Options& options = {});

  /// Objids of stored rows inside `box`; `limit` != 0 caps the reply to
  /// the first `limit` matches in clustered row order.
  Result<QueryResult> BoxQuery(const Box& box, uint64_t limit = 0,
                               const Options& options = {});

  /// Exact k nearest stored points to `point`.
  Result<KnnResult> Knn(const std::vector<double>& point, uint32_t k,
                        const Options& options = {});

  /// TABLESAMPLE SYSTEM(percent) + TOP(n) inside `box`, page sampling
  /// seeded by `seed` (same seed, same sample).
  Result<QueryResult> TableSample(const Box& box, double percent, uint64_t n,
                                  uint64_t seed, const Options& options = {});

  Result<HealthResult> Health(const Options& options = {});
  Result<protocol::ServerStatsSnapshot> ServerStats(
      const Options& options = {});

  /// Admin: asks the server to load a new dataset generation and swap it
  /// in (kReload). `path` names a dataset file on the SERVER's
  /// filesystem; empty asks the server to reload its current source.
  /// Loading runs on a server worker, so pass a deadline generous enough
  /// to cover the build (or 0 for the client's long default bound).
  Result<protocol::ReloadReply> Reload(const std::string& path,
                                       const Options& options = {});

  /// Pipelined batch exchanges: all k request frames are written before
  /// any reply is read, so the batch costs one round trip instead of k.
  /// Replies are correlated by request id (the server may interleave
  /// them), and each slot of the returned vector carries that request's
  /// own result — per-request errors (invalid argument, overload
  /// rejection) fail only their slot. A transport failure (timeout,
  /// desynchronized stream, connection loss) closes the connection and
  /// fails every slot that has no reply yet.
  ///
  /// The returned vector always has boxes.size() entries, slot i matching
  /// boxes[i].
  std::vector<Result<uint64_t>> PointCountPipeline(
      const std::vector<Box>& boxes, const Options& options = {});
  std::vector<Result<QueryResult>> BoxQueryPipeline(
      const std::vector<Box>& boxes, uint64_t limit = 0,
      const Options& options = {});

  /// True while the connection has not failed. A failed exchange poisons
  /// the connection (its fd closes when this client is destroyed or
  /// reassigned); callers reconnect with Connect().
  bool connected() const { return sock_.valid() && !poisoned_; }

  /// Aborts an in-flight exchange from another thread: shuts the socket
  /// down both ways so a blocked read/write in the owning thread fails
  /// promptly. Safe concurrently with the owning thread's exchange
  /// because a failed exchange only *poisons* the client — the fd is
  /// closed solely by the owning thread's destructor/reassignment, which
  /// the mdsc coordinator orders after deregistration from the abort
  /// list. An aborted client is never reusable, only destroyable.
  void Abort() { sock_.ShutdownBoth(); }

 private:
  explicit QueryClient(Socket sock) : sock_(std::move(sock)) {}

  /// One request/reply exchange: frames and sends the request payload,
  /// reads the matching reply, decodes its header + status, and leaves
  /// `reader` positioned at the reply body.
  Status RoundTrip(protocol::MessageType type, const Options& options,
                   const std::vector<uint8_t>& body,
                   std::vector<uint8_t>* reply_payload,
                   protocol::MessageHeader* reply_header,
                   size_t* body_offset);

  /// Shared body of PointCount / BoxQuery (same request shape, different
  /// message type).
  Result<QueryResult> BoxQueryInternal(const Box& box, uint64_t limit,
                                       const Options& options,
                                       protocol::MessageType type);

  /// Shared body of the pipelined exchanges: writes all request frames
  /// back-to-back, then reads and correlates the replies. Returns one
  /// decoded QueryReply result per request, in request order.
  std::vector<Result<QueryResult>> PipelineInternal(
      const std::vector<Box>& boxes, uint64_t limit, const Options& options,
      protocol::MessageType type);

  static uint32_t RequestFlags(const Options& options);

  /// Maps a transport-read failure onto the caller's deadline: a bounded
  /// exchange that timed out is kDeadlineExceeded (retryable), not a
  /// generic kUnavailable.
  Status MapExchangeFailure(Status st, const Options& options,
                            const IoDeadline& deadline);

  Socket sock_;
  uint64_t next_request_id_ = 1;
  /// Set by a failed exchange instead of closing the fd: keeps Close()
  /// off exchange threads so Abort()'s cross-thread shutdown can never
  /// race a close (and hit a recycled descriptor).
  bool poisoned_ = false;
};

}  // namespace mds

#endif  // MDS_SERVER_CLIENT_H_
