// Pooled HTTP/1.1 client for one backend shard. Each BackendClient owns a
// small LIFO pool of keep-alive connections to a single endpoint; Call()
// checks one out (or dials with a bounded connect timeout and bounded
// retries), runs one request/response exchange with the incremental
// HttpResponseParser, and returns the connection to the pool when the server
// committed to keeping it open.
//
// Failure semantics are deliberately conservative, because the router's
// merge must never double-apply a query side effect (there are none today —
// /query is a pure read — but the discipline is free): an exchange is only
// retried transparently when it provably never reached the server's request
// handler, i.e. a pooled connection that died before yielding a single
// response byte (a stale keep-alive race) or a connect() that failed
// outright. Once a response byte has been seen, the error is surfaced.
//
// Call() blocks its thread; it serves the health checker and any caller
// that wants one exchange at a time. Calls are cancelable from another
// thread through CallCancel. Cancel() uses shutdown(2), never close(2), so
// the fd stays valid (no fd-reuse race) and the blocked recv/send in the
// calling thread wakes with an error.
//
// PolledCall is the same exchange with the same retry rules, driven by the
// caller's own poll() loop instead: the router's scatter runs all of a
// query's legs on its HTTP worker thread this way, with no thread per leg.

#ifndef XFRAG_ROUTER_BACKEND_CLIENT_H_
#define XFRAG_ROUTER_BACKEND_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "server/http.h"
#include "server/net.h"

namespace xfrag::router {

/// \brief Cross-thread cancellation handle for one Call(). Arm/disarm are
/// internal to BackendClient; callers just hold the handle and Cancel().
class CallCancel {
 public:
  /// \brief Wakes the call's blocked socket I/O and makes the call fail with
  /// kCancelled. Safe from any thread, idempotent, and race-free against the
  /// call completing concurrently (a completed call ignores it).
  void Cancel();

  bool canceled() const;

 private:
  friend class BackendClient;
  /// Registers the in-flight fd; reports false if already canceled (the
  /// caller must not start I/O).
  bool Arm(int fd);
  void Disarm();

  mutable std::mutex mutex_;
  int fd_ = -1;
  bool canceled_ = false;
};

/// \brief One parsed exchange outcome (status + body already split).
struct BackendResponse {
  int status = 0;
  std::string body;
  bool reused_connection = false;
};

/// \brief Keep-alive connection pool + HTTP client for one shard endpoint.
/// Thread-safe: any number of concurrent Call()s; the pool is shared.
class BackendClient {
 public:
  struct Options {
    int connect_timeout_ms = 1000;
    /// Socket read/write timeout while an exchange is in flight. Per-call
    /// deadlines below this still apply (the smaller wins).
    int io_timeout_ms = 30000;
    /// Connections kept warm for reuse (beyond this, finished connections
    /// are closed, not pooled).
    size_t max_pool_size = 8;
    /// Fresh-connect attempts per Call (>= 1).
    int max_connect_attempts = 2;
    size_t max_response_bytes = 64u << 20;
  };

  BackendClient(std::string host, uint16_t port, Options options);
  ~BackendClient();

  BackendClient(const BackendClient&) = delete;
  BackendClient& operator=(const BackendClient&) = delete;

  /// \brief One HTTP exchange. `request_bytes` must be a complete HTTP/1.1
  /// message (use BuildRequest). `deadline_ms` > 0 caps the whole exchange
  /// including connect; <= 0 falls back to the configured io timeout.
  /// `cancel` may be null.
  StatusOr<BackendResponse> Call(const std::string& request_bytes,
                                 int deadline_ms,
                                 const std::shared_ptr<CallCancel>& cancel);

  /// \brief Renders a keep-alive request message for this endpoint.
  std::string BuildRequest(std::string_view method, std::string_view target,
                           std::string_view body) const;

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// Pool observability for /metrics.
  struct PoolStats {
    uint64_t connects = 0;
    uint64_t reuses = 0;
    uint64_t stale_retries = 0;
    size_t pooled = 0;
  };
  PoolStats Stats() const;

 private:
  friend class PolledCall;

  server::UniqueFd TakePooled();
  void ReturnPooled(server::UniqueFd fd);
  StatusOr<BackendResponse> Exchange(server::UniqueFd* conn,
                                     const std::string& request_bytes,
                                     int timeout_ms,
                                     const std::shared_ptr<CallCancel>& cancel,
                                     bool* saw_bytes);

  std::string host_;
  uint16_t port_ = 0;
  Options options_;

  mutable std::mutex mutex_;
  std::vector<server::UniqueFd> pool_;
  uint64_t connects_ = 0;
  uint64_t reuses_ = 0;
  uint64_t stale_retries_ = 0;
};

/// \brief One exchange with a BackendClient's shard, advanced by the
/// caller's poll() loop: poll fd() for events(), hand the result to
/// Advance(), and read the outcome once finished().
///
/// The retry rules are Call()'s: a pooled connection that fails before the
/// first response byte is re-dialed once, and a dial that fails is retried
/// up to max_connect_attempts. A dial never blocks — it is in the poll set
/// like any other leg, bounded by connect_timeout_ms (see DialExpired).
/// Pooled sockets stay in blocking mode, because Call() shares the pool:
/// reads and writes here pass MSG_DONTWAIT instead, and a dial's socket is
/// non-blocking only until it connects. A completed exchange returns its
/// connection to the pool when the shard keeps it alive; one destroyed
/// before it completes (a hedge loser, a leg past the deadline) closes it.
class PolledCall {
 public:
  using Clock = std::chrono::steady_clock;

  /// `request` (a BuildRequest message) must outlive the call. Starts at
  /// once: takes a pooled connection, or begins a dial, and writes what the
  /// socket takes without waiting.
  PolledCall(BackendClient* client, const std::string* request);

  PolledCall(const PolledCall&) = delete;
  PolledCall& operator=(const PolledCall&) = delete;

  bool finished() const {
    return state_ == State::kDone || state_ == State::kFailed;
  }
  /// True when finished with a complete response (any HTTP status).
  bool ok() const { return state_ == State::kDone; }
  /// The failure of a finished, not ok() call.
  const Status& error() const { return error_; }
  /// The response of an ok() call; the caller may move it out.
  BackendResponse& response() { return response_; }

  /// The socket to poll and the events to wait for (while !finished()).
  int fd() const { return conn_.get(); }
  short events() const;

  /// Moves the exchange on after poll() reported `revents` for fd().
  void Advance(short revents);

  /// When a dial is in flight, the time by which it must connect;
  /// Clock::time_point::max() otherwise.
  Clock::time_point dial_deadline() const;
  /// Fails (or re-dials, while attempts remain) a dial past its deadline.
  void DialExpired(Clock::time_point now);

 private:
  enum class State { kConnecting, kWriting, kReading, kDone, kFailed };

  /// Starts dials until one is in flight or connected, or the attempts run
  /// out.
  void Dial();
  /// A dial's socket became writable: the connect finished, one way or
  /// the other.
  void OnConnected();
  void Write();
  void Read();
  /// An I/O error or premature EOF: re-dial a stale pooled connection that
  /// yielded no response byte, else fail.
  void OnIoError(Status status);
  void Fail(Status status);

  BackendClient* client_;
  const std::string* request_;
  State state_ = State::kFailed;
  server::UniqueFd conn_;
  bool pooled_ = false;  // conn_ came from the pool
  int dial_attempts_ = 0;
  Clock::time_point dial_deadline_ = Clock::time_point::max();
  size_t written_ = 0;
  server::HttpResponseParser parser_;
  BackendResponse response_;
  Status error_ = Status::OK();
};

}  // namespace xfrag::router

#endif  // XFRAG_ROUTER_BACKEND_CLIENT_H_
