// Thin POSIX TCP helpers for the serving subsystem: RAII file descriptors,
// loopback listeners with ephemeral-port support, client connects, and
// timeout-bounded whole-connection round trips (used by xfrag_client, the
// integration tests, and bench_serving). IPv4 only — xfragd is a
// loopback/LAN daemon, not an internet-facing frontend.

#ifndef XFRAG_SERVER_NET_H_
#define XFRAG_SERVER_NET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace xfrag::server {

/// \brief Owning wrapper around a file descriptor (closes on destruction).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor now (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// \brief Creates a listening TCP socket bound to `host:port` (port 0 picks
/// an ephemeral port; read it back with LocalPort). SO_REUSEADDR is set.
StatusOr<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                             int backlog = 128);

/// \brief The locally bound port of a socket (resolves ephemeral binds).
StatusOr<uint16_t> LocalPort(int fd);

/// \brief Blocking connect to `host:port`.
StatusOr<UniqueFd> ConnectTcp(const std::string& host, uint16_t port);

/// \brief Connect bounded by `timeout_ms` (non-blocking connect + poll).
/// A timeout reports DeadlineExceeded; a refused/unreachable peer NotFound.
StatusOr<UniqueFd> ConnectTcpTimeout(const std::string& host, uint16_t port,
                                     int timeout_ms);

/// \brief Starts a connect to `host:port` without waiting for it: the socket
/// is returned non-blocking with the connect in progress (or already done).
/// Poll it for POLLOUT, then call FinishConnectTcp. A peer refused at once
/// reports NotFound.
StatusOr<UniqueFd> StartConnectTcp(const std::string& host, uint16_t port);

/// \brief Completes a StartConnectTcp socket once poll reports it writable:
/// returns the connect's outcome (NotFound on failure) and puts the socket
/// back in blocking mode.
Status FinishConnectTcp(int fd, const std::string& host, uint16_t port);

/// \brief Sets SO_RCVTIMEO / SO_SNDTIMEO (bounds every recv/send).
Status SetSocketTimeouts(int fd, int timeout_ms);

/// \brief Writes all of `data` (retrying short writes). SIGPIPE-safe.
Status WriteAll(int fd, std::string_view data);

/// \brief One recv into `buf`; returns the byte count, 0 on orderly peer
/// close, or an error (including timeouts, reported as DeadlineExceeded).
StatusOr<size_t> ReadSome(int fd, char* buf, size_t len);

/// \brief Client-side convenience: connect, send `request` (an HTTP/1.1
/// message with Connection: close), read until the server closes, and return
/// the raw response bytes. `timeout_ms` bounds each socket operation.
StatusOr<std::string> HttpRoundTrip(const std::string& host, uint16_t port,
                                    std::string_view request,
                                    int timeout_ms = 30000);

}  // namespace xfrag::server

#endif  // XFRAG_SERVER_NET_H_
