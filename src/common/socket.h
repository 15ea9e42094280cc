#ifndef MDS_COMMON_SOCKET_H_
#define MDS_COMMON_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace mds {

/// Monotonic deadline for socket I/O. A default-constructed deadline is
/// infinite; After(ms) builds one relative to now.
class IoDeadline {
 public:
  IoDeadline() = default;

  static IoDeadline After(uint64_t millis) {
    IoDeadline d;
    d.has_deadline_ = true;
    d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(millis);
    return d;
  }
  static IoDeadline Infinite() { return IoDeadline(); }

  bool infinite() const { return !has_deadline_; }
  bool Expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Milliseconds until expiry, clamped to >= 0; -1 when infinite (the
  /// poll(2) convention).
  int PollTimeoutMillis() const;

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point at_;
};

/// Thin RAII owner of a socket file descriptor. Move-only; closes on
/// destruction. All I/O is Status-based and EINTR/partial-transfer safe —
/// the same discipline FilePager applies to file I/O, applied to the wire.
///
/// Thread safety: thread-compatible. Reads and writes may come from two
/// different threads (one thread reads requests while another writes a
/// reply) because they touch disjoint directions of the stream,
/// but each direction must be externally serialized. ShutdownBoth() may
/// be called from any thread to unblock a peer stuck in ReadFull, but the
/// caller must guarantee the socket is not concurrently Close()d or
/// moved — shutdown of a racing fd close could hit a recycled descriptor.
/// QueryClient's poison-on-failure discipline provides that guarantee for
/// the coordinator's hedge-abort path.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads exactly n bytes. Blocks (bounded by `deadline`) until the bytes
  /// arrive, the peer closes (kUnavailable, "connection closed"; NotFound
  /// when the close lands exactly on a frame boundary, i.e. zero bytes
  /// read), the deadline expires (kUnavailable, "deadline"), or a socket
  /// error occurs (kIOError).
  Status ReadFull(void* buf, size_t n, const IoDeadline& deadline);

  /// Writes exactly n bytes (MSG_NOSIGNAL; a closed peer is kUnavailable,
  /// never SIGPIPE).
  Status WriteFull(const void* buf, size_t n, const IoDeadline& deadline);

  /// Disables Nagle's algorithm — required for request/reply framing, or
  /// every small query pays a delayed-ACK round trip.
  Status SetNoDelay();

  /// Puts the fd in O_NONBLOCK mode (the event-loop discipline: readiness
  /// comes from epoll, never from blocking in read/write). ReadFull and
  /// WriteFull keep working on a non-blocking fd (they poll on EAGAIN).
  Status SetNonBlocking();

  /// shutdown(SHUT_RDWR): wakes any thread blocked in ReadFull/WriteFull
  /// on this socket with "connection closed". The fd stays owned.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to 127.0.0.1 (the serving layer is a
/// loopback/LAN protocol; TLS and remote exposure are out of scope).
class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:port; port 0 picks a free ephemeral
  /// port, readable from port() afterwards.
  static Result<TcpListener> Listen(uint16_t port, int backlog = 128);

  /// Accepts one connection, bounded by `deadline`; kUnavailable on
  /// deadline expiry or if the listener was shut down.
  Result<Socket> Accept(const IoDeadline& deadline);

  /// Non-blocking accept for the event-loop path (the listener fd must be
  /// in non-blocking mode). Failure taxonomy: kUnavailable = nothing
  /// pending (EAGAIN) or listener shut down; kResourceExhausted = fd/
  /// buffer exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM — the caller should
  /// back off, not spin); kIOError otherwise.
  Result<Socket> AcceptNonBlocking();

  uint16_t port() const { return port_; }
  int fd() const { return socket_.fd(); }
  bool valid() const { return socket_.valid(); }

  /// Puts the listening fd in O_NONBLOCK mode (see AcceptNonBlocking).
  Status SetNonBlocking() { return socket_.SetNonBlocking(); }

  /// Unblocks a pending Accept from another thread.
  void Shutdown() { socket_.ShutdownBoth(); }

 private:
  Socket socket_;
  uint16_t port_ = 0;
};

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"), bounded
/// by `timeout_millis` (0 = no bound). The returned socket has TCP_NODELAY
/// set.
Result<Socket> TcpConnect(const std::string& host, uint16_t port,
                          uint64_t timeout_millis = 0);

}  // namespace mds

#endif  // MDS_COMMON_SOCKET_H_
