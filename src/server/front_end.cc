#include "server/front_end.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/buffered_socket.h"
#include "common/crc32c.h"
#include "common/event_loop.h"
#include "common/slab_pool.h"

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;
using protocol::TypeIndex;

/// Bound on any single reply flush: a client that stops draining its
/// socket cannot hold a write queue (and its buffers) forever. Armed when
/// the kernel stops taking bytes, cancelled when the queue drains.
constexpr uint32_t kReplyWriteTimeoutMs = 30000;

/// accept() fd-exhaustion backoff bounds: the listener is deregistered and
/// re-armed after a bounded, exponentially growing delay instead of
/// busy-spinning on the forever-readable listen fd.
constexpr uint64_t kAcceptBackoffMinMs = 10;
constexpr uint64_t kAcceptBackoffMaxMs = 1000;

/// Shutdown grace for flushing pending replies to slow readers before
/// their connections are closed anyway.
constexpr uint64_t kDrainFlushGraceMs = 5000;

/// Flags that make a request uncacheable: skip_corrupt can produce a
/// degraded answer tied to a transient fault, and planner-pinning hints
/// are diagnostics whose replies (chosen_path, I/O counters) must reflect
/// a real execution.
constexpr uint32_t kUncacheableFlags = protocol::kFlagSkipCorrupt |
                                       protocol::kFlagHintFullScan |
                                       protocol::kFlagHintIndex;

/// True for request types whose reply is a pure function of (dataset
/// epoch, request body): point counts, box queries, kNN and seeded
/// TABLESAMPLE (the RNG seed travels in the body). Health and stats are
/// answered inline and change between calls.
bool CacheableRequest(const protocol::MessageHeader& header) {
  if ((header.flags & kUncacheableFlags) != 0) return false;
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kKnn:
    case MessageType::kTableSample:
      return true;
    default:
      return false;
  }
}

/// True for requests a worker may gang into one batch: box-like queries.
/// A gang is one worker handoff; the backend still runs its requests one
/// by one. kNN and reloads execute alone.
bool Gangable(const protocol::MessageHeader& header) {
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kTableSample:
      return true;
    default:
      return false;
  }
}

void RelaxedMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

/// Per-connection reactor state. All fields are owned by the home loop's
/// thread; other threads reach a Conn only via EventLoop::Post.
struct FrontEnd::Conn {
  BufferedSocket bsock;
  IoLoop* home = nullptr;
  int fd = -1;  ///< cached for deregistration after the socket closes
  bool closed = false;
  /// Logical close: no more frames are read (peer EOF, idle timeout or
  /// protocol violation), but the socket stays open until the replies of
  /// already-admitted requests have flushed.
  bool read_eof = false;
  bool want_write = false;  ///< EPOLLOUT currently requested
  /// Admitted requests whose replies have not yet been delivered to this
  /// connection's write queue (loop thread only).
  size_t admitted_open = 0;
  EventLoop::TimerId idle_timer = 0;
  EventLoop::TimerId write_timer = 0;
};

/// One reactor thread: an event loop plus the connections homed on it.
struct FrontEnd::IoLoop {
  EventLoop loop;
  std::thread thread;
  std::vector<std::shared_ptr<Conn>> conns;  // loop-thread owned
  bool shutting_down = false;
  bool stop_requested = false;
  EventLoop::TimerId shutdown_timer = 0;
};

/// One encoded reply, split for scatter-gather delivery: `head` is the
/// frame prefix plus the 28 bytes through the message header (per-request:
/// it carries the requester's id), `tail` is the refcounted payload after
/// the header (status + body), shared by reference with the response cache
/// on hits. Queued as two write buffers, gathered into one writev.
struct FrontEnd::ReplyFrame {
  std::vector<uint8_t> head;
  SlabPool::Slice tail;
  size_t size() const { return head.size() + tail.size(); }
};

FrontEnd::FrontEnd(Backend* backend, const ServerConfig& config)
    : backend_(backend), config_(config) {
  if (config_.max_in_flight == 0) config_.max_in_flight = 1;
  if (config_.io_threads == 0) config_.io_threads = 1;
  if (config_.pipeline_batch_max == 0) config_.pipeline_batch_max = 1;
  if (config_.cache_bytes != 0) {
    cache_ = std::make_unique<ResponseCache>(config_.cache_bytes);
  }
}

FrontEnd::~FrontEnd() { Shutdown(); }

Status FrontEnd::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto listener = TcpListener::Listen(config_.port);
  if (!listener.ok()) return AnnotateStatus(listener.status(), "Start");
  listener_ = std::move(*listener);
  port_ = listener_.port();
  MDS_RETURN_NOT_OK(listener_.SetNonBlocking());

  loops_.clear();
  next_loop_ = 0;
  for (unsigned i = 0; i < config_.io_threads; ++i) {
    loops_.push_back(std::make_unique<IoLoop>());
    if (!loops_.back()->loop.valid()) {
      loops_.clear();
      return Status::Internal("Start: epoll unavailable");
    }
  }
  debug_fail_remaining_ = config_.debug_fail_first_accepts;
  accept_backoff_ms_ = 0;

  // Register the listener before the loop thread exists — no concurrent
  // access yet, and the thread start is the happens-before edge.
  Status added = loops_[0]->loop.Add(listener_.fd(), EventLoop::kReadable,
                                     [this](uint32_t) { OnAcceptReady(); });
  if (!added.ok()) {
    loops_.clear();
    return AnnotateStatus(added, "Start");
  }
  listener_registered_ = true;

  started_ = true;
  state_.store(State::kRunning);
  if (!backend_->ExecutesInline()) {
    workers_ = std::make_unique<TaskPool>(config_.num_workers);
    // The first Submit starts the pool's last thread; do it now, so the
    // thread count is fixed at Start and never moves with traffic.
    workers_->Submit([] {});
  }
  for (auto& io : loops_) {
    IoLoop* p = io.get();
    p->thread = std::thread([p] { p->loop.Run(); });
  }
  return Status::OK();
}

// --- reactor: accept path ---------------------------------------------------

void FrontEnd::OnAcceptReady() {
  IoLoop* io0 = loops_[0].get();
  if (state_.load() != State::kRunning) {
    if (listener_registered_) {
      io0->loop.Remove(listener_.fd());
      listener_registered_ = false;
    }
    return;
  }
  // Drain the backlog to EAGAIN; the listener stays level-triggered so a
  // partial drain re-fires.
  for (;;) {
    auto accepted = listener_.AcceptNonBlocking();
    if (!accepted.ok()) {
      const StatusCode code = accepted.status().code();
      if (code == StatusCode::kResourceExhausted) {
        // Out of fds: the pending connection stays queued, so the fd
        // would stay readable and the loop would spin. Deregister and
        // come back after a bounded, growing backoff.
        counters_.accept_errors.fetch_add(1, std::memory_order_relaxed);
        BackOffAccept();
      } else if (code != StatusCode::kUnavailable) {
        // Unrecoverable listener error; stop accepting. (kUnavailable is
        // EAGAIN — backlog drained — or the drain-path shutdown.)
        if (listener_registered_) {
          io0->loop.Remove(listener_.fd());
          listener_registered_ = false;
        }
      }
      return;
    }
    if (debug_fail_remaining_ > 0) {
      // Test hook: behave exactly as if accept() had returned EMFILE.
      --debug_fail_remaining_;
      counters_.accept_errors.fetch_add(1, std::memory_order_relaxed);
      BackOffAccept();
      return;  // the accepted socket closes on scope exit
    }
    accept_backoff_ms_ = 0;
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    AdoptConnection(std::move(*accepted));
  }
}

void FrontEnd::BackOffAccept() {
  if (listener_registered_) {
    loops_[0]->loop.Remove(listener_.fd());
    listener_registered_ = false;
  }
  accept_backoff_ms_ =
      accept_backoff_ms_ == 0
          ? kAcceptBackoffMinMs
          : std::min(accept_backoff_ms_ * 2, kAcceptBackoffMaxMs);
  // Equal jitter (base/2 + uniform(0, base/2]): fd exhaustion is usually
  // fleet-wide (a shared client burst), and deterministic doubling would
  // re-arm every replica's acceptor on the same tick. Loop-0 thread only,
  // like the rest of the accept state.
  const uint64_t backoff_ms =
      accept_backoff_ms_ / 2 +
      accept_rng_.NextBounded(accept_backoff_ms_ / 2 + 1);
  loops_[0]->loop.AddTimer(backoff_ms, [this] {
    IoLoop* io0 = loops_[0].get();
    if (io0->shutting_down || state_.load() != State::kRunning) return;
    if (!listener_registered_ && listener_.valid()) {
      Status added = io0->loop.Add(listener_.fd(), EventLoop::kReadable,
                                   [this](uint32_t) { OnAcceptReady(); });
      if (added.ok()) {
        listener_registered_ = true;
        OnAcceptReady();  // serve anything that queued during the backoff
      }
    }
  });
}

void FrontEnd::AdoptConnection(Socket sock) {
  if (open_connections_.load(std::memory_order_relaxed) >=
      config_.max_connections) {
    // Connection-level shed: no protocol state yet, so close is the only
    // honest answer (request-level shedding replies kUnavailable).
    counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    return;  // sock closes on scope exit
  }
  (void)sock.SetNoDelay();
  auto conn = std::make_shared<Conn>();
  conn->fd = sock.fd();
  conn->bsock = BufferedSocket(std::move(sock));
  IoLoop* home = loops_[next_loop_++ % loops_.size()].get();
  conn->home = home;
  open_connections_.fetch_add(1, std::memory_order_relaxed);
  if (home == loops_[0].get()) {
    RegisterConnection(home, std::move(conn));
  } else {
    home->loop.Post(
        [this, home, conn] { RegisterConnection(home, conn); });
  }
}

void FrontEnd::RegisterConnection(IoLoop* home, std::shared_ptr<Conn> conn) {
  if (home->shutting_down) {
    counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    return;  // socket closes with the Conn
  }
  home->conns.push_back(conn);
  ArmIdleTimer(conn);
  Status added = home->loop.Add(
      conn->fd, EventLoop::kReadable,
      [this, conn](uint32_t ready) { OnConnEvent(conn, ready); });
  if (!added.ok()) CloseConn(conn);
}

// --- reactor: per-connection events -----------------------------------------

void FrontEnd::ArmIdleTimer(const std::shared_ptr<Conn>& conn) {
  if (conn->idle_timer != 0) {
    conn->home->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (config_.idle_timeout_ms == 0) return;
  conn->idle_timer =
      conn->home->loop.AddTimer(config_.idle_timeout_ms, [this, conn] {
        conn->idle_timer = 0;
        // Idle or mid-frame stall (slow-loris): stop reading. Not a
        // protocol violation.
        if (!conn->closed) StopReading(conn);
      });
}

void FrontEnd::OnConnEvent(const std::shared_ptr<Conn>& conn,
                           uint32_t ready) {
  if (conn->closed) return;
  if (ready & EventLoop::kWritable) {
    FlushConn(conn);
    if (conn->closed) return;
  }
  if (conn->read_eof) {
    // Reading already stopped; hangup/error just accelerates the flush
    // (or surfaces the failure that closes the connection).
    if (ready & (EventLoop::kHangup | EventLoop::kError)) FlushConn(conn);
    return;
  }
  if (ready &
      (EventLoop::kReadable | EventLoop::kHangup | EventLoop::kError)) {
    const BufferedSocket::IoResult fill = conn->bsock.Fill();
    Batch gang;
    const bool reading = ProcessFrames(conn, &gang);
    FlushGang(&gang);
    if (conn->closed) return;
    if (reading && (fill == BufferedSocket::IoResult::kClosed ||
                    fill == BufferedSocket::IoResult::kError)) {
      if (fill == BufferedSocket::IoResult::kError) {
        CloseConn(conn);
      } else {
        // Peer EOF. A partial frame left in the buffer is a mid-frame
        // close; a clean boundary is the normal end of a connection.
        // Either way no more frames arrive — stop reading and let any
        // admitted replies flush.
        StopReading(conn);
      }
    }
  }
}

bool FrontEnd::ProcessFrames(const std::shared_ptr<Conn>& conn,
                             Batch* gang) {
  size_t frames = 0;
  for (;;) {
    if (conn->bsock.size() < protocol::kFramePrefixBytes) break;
    WireReader prefix(conn->bsock.data(), protocol::kFramePrefixBytes);
    const uint32_t magic = prefix.GetU32();
    const uint32_t len = prefix.GetU32();
    const uint32_t crc = prefix.GetU32();
    if (magic != protocol::kFrameMagic || len > protocol::kMaxPayloadBytes) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      StopReading(conn);
      return false;
    }
    if (conn->bsock.size() < protocol::kFramePrefixBytes + len) break;
    const uint8_t* body = conn->bsock.data() + protocol::kFramePrefixBytes;
    if (Crc32c(body, len) != crc) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      StopReading(conn);
      return false;
    }
    std::vector<uint8_t> payload(body, body + len);
    conn->bsock.Consume(protocol::kFramePrefixBytes + len);
    counters_.bytes_in.fetch_add(protocol::kFramePrefixBytes + len,
                                 std::memory_order_relaxed);
    ++frames;
    if (!HandleFrame(conn, std::move(payload), gang)) {
      StopReading(conn);
      return false;
    }
  }
  // A completed frame with an empty buffer is a frame boundary: restart
  // the idle clock. A partial frame keeps the clock from its last
  // boundary (slow-loris).
  if (frames > 0 && conn->bsock.size() == 0 && !conn->closed &&
      !conn->read_eof) {
    ArmIdleTimer(conn);
  }
  return true;
}

bool FrontEnd::HandleFrame(const std::shared_ptr<Conn>& conn,
                           std::vector<uint8_t> payload, Batch* gang) {
  Request req;
  req.conn = conn;
  req.payload = std::move(payload);
  req.arrival = std::chrono::steady_clock::now();
  WireReader r(req.payload);
  if (!DecodeMessageHeader(&r, &req.header).ok()) {
    // Unknown version or truncated header: nothing trustworthy to echo —
    // close the connection (the documented contract for version skew).
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  counters_.requests_total.fetch_add(1, std::memory_order_relaxed);
  backend_->Bind(&req);

  // All request bodies begin with the deadline prefix.
  req.deadline_ms = r.GetU32();
  req.body_offset = req.payload.size() - r.remaining();
  if (!r.ok()) {
    WriteErrorReply(req, Status::InvalidArgument("request body truncated"),
                    0);
    return true;
  }
  if (req.deadline_ms == 0) req.deadline_ms = config_.default_deadline_ms;

  switch (req.header.type) {
    case MessageType::kHealth:
      HandleHealth(req);
      return true;
    case MessageType::kStats:
      HandleStats(req);
      return true;
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kKnn:
    case MessageType::kTableSample:
    case MessageType::kReload:
      // kReload rides the worker path: uncacheable and non-gangable, so
      // it lands in its own singleton batch behind admission control.
      break;
    default:
      WriteErrorReply(
          req,
          Status::Unimplemented("unknown request type " +
                                std::to_string(static_cast<unsigned>(
                                    req.header.type))),
          0);
      return true;
  }

  // Response-cache fast path, on this I/O thread: a hit is answered
  // immediately and never touches admission control, the queue or the
  // deadline machinery. A miss tags the request to populate the cache
  // once its reply is finalized.
  if (TryServeFromCache(&req)) return true;

  // Admission control: reject rather than buffer beyond the cap.
  {
    std::unique_lock<std::mutex> lock(admit_mu_);
    if (state_.load() != State::kRunning) {
      lock.unlock();
      counters_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
      WriteErrorReply(req,
                      Status::Unavailable("server draining; retry elsewhere"),
                      protocol::kFlagDraining);
      return true;
    }
    if (in_flight_ >= config_.max_in_flight) {
      lock.unlock();
      counters_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      WriteErrorReply(
          req, Status::Unavailable("server overloaded; retry with backoff"),
          0);
      return true;
    }
    ++in_flight_;
    RelaxedMax(&counters_.in_flight_peak, in_flight_);
  }
  req.admitted = true;
  ++conn->admitted_open;

  // Pipelining: contiguous gangable cache misses from this readiness
  // event ride one batch; anything else executes alone (and splits the
  // gang to preserve queue order).
  if (!Gangable(req.header)) {
    FlushGang(gang);
    Batch single;
    single.push_back(std::move(req));
    EnqueueBatch(std::move(single));
  } else {
    gang->push_back(std::move(req));
    if (gang->size() >= config_.pipeline_batch_max) FlushGang(gang);
  }
  return true;
}

void FrontEnd::FlushGang(Batch* gang) {
  if (gang->empty()) return;
  EnqueueBatch(std::move(*gang));
  gang->clear();
}

void FrontEnd::EnqueueBatch(Batch batch) {
  if (workers_ == nullptr) {
    RunBatch(&batch);  // an inline backend: Execute never blocks
    return;
  }
  workers_->Submit(
      [this, batch = std::move(batch)]() mutable { RunBatch(&batch); });
}

void FrontEnd::FlushConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  IoLoop* home = conn->home;
  if (conn->bsock.has_pending_write()) {
    switch (conn->bsock.Flush()) {
      case BufferedSocket::IoResult::kWouldBlock:
        if (!conn->want_write) {
          conn->want_write = true;
          (void)home->loop.Modify(
              conn->fd, EventLoop::kWritable |
                            (conn->read_eof ? 0u : EventLoop::kReadable));
        }
        if (conn->write_timer == 0) {
          conn->write_timer =
              home->loop.AddTimer(kReplyWriteTimeoutMs, [this, conn] {
                conn->write_timer = 0;
                // Write-side slow-loris: the peer stopped draining its
                // socket; drop it rather than hold the reply bytes.
                if (!conn->closed) CloseConn(conn);
              });
        }
        return;
      case BufferedSocket::IoResult::kClosed:
      case BufferedSocket::IoResult::kError:
        CloseConn(conn);
        return;
      case BufferedSocket::IoResult::kProgress:
        break;  // drained
    }
  }
  // Queue drained.
  if (conn->want_write) {
    conn->want_write = false;
    (void)home->loop.Modify(
        conn->fd, conn->read_eof ? 0u : EventLoop::kReadable);
  }
  if (conn->write_timer != 0) {
    home->loop.CancelTimer(conn->write_timer);
    conn->write_timer = 0;
  }
  if (conn->read_eof && conn->admitted_open == 0) {
    CloseConn(conn);
    return;
  }
  if (home->shutting_down) CheckLoopDrained(home);
}

void FrontEnd::StopReading(const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->read_eof) return;
  conn->read_eof = true;
  if (conn->idle_timer != 0) {
    conn->home->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (conn->admitted_open == 0 && !conn->bsock.has_pending_write()) {
    CloseConn(conn);
    return;
  }
  (void)conn->home->loop.Modify(
      conn->fd, conn->want_write ? EventLoop::kWritable : 0u);
}

void FrontEnd::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  IoLoop* home = conn->home;
  if (conn->idle_timer != 0) {
    home->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (conn->write_timer != 0) {
    home->loop.CancelTimer(conn->write_timer);
    conn->write_timer = 0;
  }
  home->loop.Remove(conn->fd);
  conn->bsock.socket().Close();
  counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  for (auto it = home->conns.begin(); it != home->conns.end(); ++it) {
    if (it->get() == conn.get()) {
      *it = std::move(home->conns.back());
      home->conns.pop_back();
      break;
    }
  }
  if (home->shutting_down && !home->stop_requested) CheckLoopDrained(home);
}

void FrontEnd::DeliverReply(const std::shared_ptr<Conn>& conn,
                            ReplyFrame frame, bool admitted) {
  if (admitted) {
    // The slot is freed here, on the loop that reads this connection's
    // next frames: a client that has its reply and pipelines another
    // request can never find its own old request still counted.
    if (conn->admitted_open > 0) --conn->admitted_open;
    ReleaseSlot();
  }
  if (conn->closed) return;  // peer is gone; the reply has nowhere to go
  counters_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  // Head then tail, back to back: Flush gathers both into one writev. The
  // tail slice keeps its refcount pinned in the write queue until the
  // kernel has taken every byte, so a cache entry sharing it may be
  // evicted mid-flush without invalidating these bytes.
  conn->bsock.QueueWrite(std::move(frame.head));
  conn->bsock.QueueWrite(std::move(frame.tail));
  FlushConn(conn);
}

void FrontEnd::EnqueueReply(const std::shared_ptr<Conn>& conn,
                            ReplyFrame frame, bool admitted) {
  EventLoop* loop = &conn->home->loop;
  if (loop->InLoopThread()) {
    DeliverReply(conn, std::move(frame), admitted);
  } else {
    loop->Post([this, conn, admitted, f = std::move(frame)]() mutable {
      DeliverReply(conn, std::move(f), admitted);
    });
  }
}

// --- inline requests (loop threads) ----------------------------------------

bool FrontEnd::TryServeFromCache(Request* req) {
  if (cache_ == nullptr || !CacheableRequest(req->header)) return false;
  // req->cache_epoch was bound together with the request's snapshot (one
  // consistent pair): a reply computed for this request populates the
  // cache under the same generation it was looked up against, never a
  // newer one.
  ResponseCache::CachedReply hit;
  if (!cache_->Lookup(static_cast<uint16_t>(req->header.type),
                      req->cache_epoch, req->body(), req->body_size(),
                      &hit)) {
    req->cache_populate = true;
    return false;
  }

  // Re-head in place under the requester's own request id: the frame is
  // [prefix | header | memoized tail], where only prefix + header (28
  // bytes) are built per hit and the tail ships as the cache entry's own
  // slice — zero payload copies. The frame CRC spans header then tail;
  // CRC-32C chains, so checksumming the two segments in order equals the
  // CRC of their (never materialized) concatenation, and the bytes on the
  // wire are identical to the execution that populated the entry.
  MessageHeader header;
  header.type = req->header.type;
  header.flags = protocol::kFlagReply | hit.flags;
  header.request_id = req->header.request_id;

  ReplyFrame frame;
  frame.head.reserve(protocol::kFramePrefixBytes +
                     protocol::kMessageHeaderBytes);
  WireWriter w(&frame.head);
  w.PutU32(protocol::kFrameMagic);
  w.PutU32(static_cast<uint32_t>(protocol::kMessageHeaderBytes +
                                 hit.tail.size()));
  w.PutU32(0);  // CRC placeholder, patched below
  EncodeMessageHeader(header, &w);
  const uint32_t crc =
      Crc32c(Crc32c(frame.head.data() + protocol::kFramePrefixBytes,
                    protocol::kMessageHeaderBytes),
             hit.tail.data(), hit.tail.size());
  std::memcpy(frame.head.data() + 8, &crc, sizeof(crc));
  frame.tail = std::move(hit.tail);

  // Counters and latency are finalized before the reply is enqueued,
  // matching the executed-reply path's read-your-own-write contract.
  CountReply(*req, Status::OK());

  EnqueueReply(req->conn, std::move(frame), /*admitted=*/false);
  return true;
}

void FrontEnd::HandleHealth(const Request& req) {
  protocol::HealthReply reply = backend_->Health(req);
  reply.draining = state_.load() != State::kRunning ? 1 : 0;
  CountReply(req, Status::OK());
  const uint32_t flags = reply.draining ? protocol::kFlagDraining : 0;
  WriteReply(req, Status::OK(), flags, /*cacheable_reply=*/false,
             [&](WireWriter* w) { protocol::EncodeHealthReply(reply, w); });
}

void FrontEnd::HandleStats(const Request& req) {
  // Count this reply before snapshotting so the snapshot includes the
  // stats request itself.
  CountReply(req, Status::OK());
  const protocol::ServerStatsSnapshot snapshot = Stats();
  WriteReply(req, Status::OK(), 0, /*cacheable_reply=*/false,
             [&](WireWriter* w) { protocol::EncodeServerStats(snapshot, w); });
}

// --- worker path -------------------------------------------------------------

void FrontEnd::RunBatch(Batch* batch) {
  size_t live = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& req = (*batch)[i];
    if (Expired(req)) {
      counters_.deadline_timeouts.fetch_add(1, std::memory_order_relaxed);
      CompleteError(req,
                    Status::Unavailable("deadline expired before execution"));
      continue;
    }
    if (live != i) (*batch)[live] = std::move(req);
    ++live;
  }
  batch->resize(live);
  if (!batch->empty()) backend_->Execute(batch);
}

bool FrontEnd::Expired(const Request& req) const {
  if (req.deadline_ms == 0) return false;
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  return elapsed >= std::chrono::milliseconds(req.deadline_ms);
}

std::vector<uint8_t> FrontEnd::ReplyPrefix(const Request& req,
                                           const Status& status,
                                           uint32_t extra_flags) {
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  MessageHeader header;
  header.type = req.header.type;
  header.flags = protocol::kFlagReply | extra_flags;
  header.request_id = req.header.request_id;
  EncodeMessageHeader(header, &w);
  protocol::EncodeStatus(status, &w);
  return payload;
}

void FrontEnd::SendReply(const Request& req,
                         const std::vector<uint8_t>& payload,
                         uint32_t extra_flags, bool cacheable_reply) {
  // Move the encoded tail (everything after the message header) into a
  // slab slice: the one post-encode payload copy on the miss path. The
  // slice is then shared by reference — the cache entry below and the
  // socket write queue pin the same bytes.
  const size_t tail_len = payload.size() - protocol::kMessageHeaderBytes;
  SlabPool::Slice tail = SlabPool::Global().Allocate(tail_len);
  if (tail) {
    std::memcpy(tail.data(), payload.data() + protocol::kMessageHeaderBytes,
                tail_len);
    counters_.reply_tail_copies.fetch_add(1, std::memory_order_relaxed);
  }

  // Populate after the reply is finalized and before it is enqueued: a
  // subsequent hit on any connection replays exactly these bytes (minus
  // the request id). Only requests the I/O-thread probe tagged get here
  // with cache_populate set, so uncacheable flags never leak entries in.
  if (cache_ != nullptr && req.cache_populate && cacheable_reply) {
    cache_->Insert(static_cast<uint16_t>(req.header.type), req.cache_epoch,
                   req.body(), req.body_size(), extra_flags, tail);
  }

  ReplyFrame frame;
  frame.head.reserve(protocol::kFramePrefixBytes +
                     protocol::kMessageHeaderBytes);
  WireWriter hw(&frame.head);
  hw.PutU32(protocol::kFrameMagic);
  hw.PutU32(static_cast<uint32_t>(payload.size()));
  hw.PutU32(Crc32c(payload.data(), payload.size()));
  hw.PutRaw(payload.data(), protocol::kMessageHeaderBytes);
  frame.tail = std::move(tail);
  EnqueueReply(req.conn, std::move(frame), req.admitted);
}

void FrontEnd::CountReply(const Request& req, const Status& status) {
  const size_t idx = TypeIndex(req.header.type);
  if (idx >= protocol::kNumRequestTypes) return;
  latency_us_[idx].Record(MicrosSince(req.arrival));
  if (status.ok()) {
    counters_.replies_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.replies_error.fetch_add(1, std::memory_order_relaxed);
    counters_.type_errors[idx].fetch_add(1, std::memory_order_relaxed);
  }
}

void FrontEnd::ReleaseSlot() {
  // Notified under the lock: once it is released, Shutdown may return and
  // this front end may be gone.
  std::lock_guard<std::mutex> lock(admit_mu_);
  if (--in_flight_ == 0) drained_cv_.notify_all();
}

protocol::ServerStatsSnapshot FrontEnd::Stats() const {
  protocol::ServerStatsSnapshot s;
  s.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_closed =
      counters_.connections_closed.load(std::memory_order_relaxed);
  s.accept_errors = counters_.accept_errors.load(std::memory_order_relaxed);
  s.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  s.requests_total = counters_.requests_total.load(std::memory_order_relaxed);
  s.replies_ok = counters_.replies_ok.load(std::memory_order_relaxed);
  s.replies_error = counters_.replies_error.load(std::memory_order_relaxed);
  s.rejected_overload =
      counters_.rejected_overload.load(std::memory_order_relaxed);
  s.rejected_draining =
      counters_.rejected_draining.load(std::memory_order_relaxed);
  s.deadline_timeouts =
      counters_.deadline_timeouts.load(std::memory_order_relaxed);
  s.bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  s.in_flight_peak = counters_.in_flight_peak.load(std::memory_order_relaxed);

  const SlabPool::StatsSnapshot slab = SlabPool::Global().Stats();
  s.slab_allocations = slab.allocations;
  s.slab_recycles = slab.recycles;
  s.slab_bytes_in_use = slab.bytes_in_use;
  s.reply_tail_copies =
      counters_.reply_tail_copies.load(std::memory_order_relaxed);

  if (cache_ != nullptr) {
    const ResponseCache::StatsSnapshot c = cache_->Stats();
    s.cache_hits = c.hits;
    s.cache_misses = c.misses;
    s.cache_insertions = c.insertions;
    s.cache_evictions = c.evictions;
    s.cache_bytes = c.bytes;
    s.cache_entries = c.entries;
  }

  for (size_t i = 0; i < protocol::kNumRequestTypes; ++i) {
    const Histogram::Snapshot h = latency_us_[i].TakeSnapshot();
    protocol::RequestTypeStats& t = s.per_type[i];
    t.count = h.count;
    t.errors = counters_.type_errors[i].load(std::memory_order_relaxed);
    t.p50_us = h.ValueAtPercentile(50);
    t.p95_us = h.ValueAtPercentile(95);
    t.p99_us = h.ValueAtPercentile(99);
    t.max_us = h.ValueAtPercentile(100);
    t.mean_us = h.Mean();
  }
  backend_->AddStats(&s);
  return s;
}

// --- drain / shutdown --------------------------------------------------------

void FrontEnd::RequestDrain() {
  State expected = State::kRunning;
  if (state_.compare_exchange_strong(expected, State::kDraining)) {
    // Wakes loop 0 through the (registered) listener fd; the accept
    // handler sees the drained state and deregisters it.
    listener_.Shutdown();
  }
}

void FrontEnd::ShutdownLoopTask(IoLoop* io) {
  io->shutting_down = true;
  if (io == loops_[0].get() && listener_registered_) {
    io->loop.Remove(listener_.fd());
    listener_registered_ = false;
  }
  // Close everything with an empty write queue; give the rest a flush.
  std::vector<std::shared_ptr<Conn>> conns = io->conns;
  for (auto& conn : conns) {
    if (!conn->bsock.has_pending_write()) {
      CloseConn(conn);
    } else {
      FlushConn(conn);
    }
  }
  CheckLoopDrained(io);
}

void FrontEnd::CheckLoopDrained(IoLoop* io) {
  if (!io->shutting_down || io->stop_requested) return;
  bool pending = false;
  for (const auto& conn : io->conns) {
    if (conn->bsock.has_pending_write()) {
      pending = true;
      break;
    }
  }
  if (!pending) {
    if (io->shutdown_timer != 0) {
      io->loop.CancelTimer(io->shutdown_timer);
      io->shutdown_timer = 0;
    }
    StopLoop(io);
  } else if (io->shutdown_timer == 0) {
    // Bounded grace for peers that stopped reading: after it, their
    // replies are forfeit and the loop stops regardless.
    io->shutdown_timer = io->loop.AddTimer(kDrainFlushGraceMs, [this, io] {
      io->shutdown_timer = 0;
      StopLoop(io);
    });
  }
}

void FrontEnd::StopLoop(IoLoop* io) {
  io->stop_requested = true;
  std::vector<std::shared_ptr<Conn>> conns = io->conns;
  for (auto& conn : conns) CloseConn(conn);
  io->loop.Stop();
}

void FrontEnd::Shutdown() {
  if (!started_) return;
  RequestDrain();

  // Complete every admitted request before tearing anything down — the
  // graceful-drain contract.
  {
    std::unique_lock<std::mutex> lock(admit_mu_);
    drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  workers_.reset();  // joins the workers after their last reply

  // Workers are joined, so every reply has been posted; loop post queues
  // are FIFO, so the shutdown task runs after the last delivery. It
  // flushes stragglers (bounded) and stops the loop.
  for (auto& io : loops_) {
    IoLoop* p = io.get();
    p->loop.Post([this, p] { ShutdownLoopTask(p); });
  }
  for (auto& io : loops_) {
    if (io->thread.joinable()) io->thread.join();
  }
  loops_.clear();
  listener_ = TcpListener();  // release the listen fd

  state_.store(State::kStopped);
  started_ = false;
}

}  // namespace mds
