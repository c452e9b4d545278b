#include "server/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/strings.h"

namespace xfrag::server {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

StatusOr<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                             int backlog) {
  XFRAG_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

StatusOr<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

StatusOr<UniqueFd> ConnectTcp(const std::string& host, uint16_t port) {
  XFRAG_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::NotFound(StrFormat("connect %s:%u: %s", host.c_str(),
                                      unsigned{port}, std::strerror(errno)));
  }
  return fd;
}

StatusOr<UniqueFd> ConnectTcpTimeout(const std::string& host, uint16_t port,
                                     int timeout_ms) {
  XFRAG_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return Errno("socket");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      return Status::NotFound(StrFormat("connect %s:%u: %s", host.c_str(),
                                        unsigned{port}, std::strerror(errno)));
    }
    pollfd pfd{fd.get(), POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return Status::DeadlineExceeded(StrFormat(
          "connect %s:%u timed out after %d ms", host.c_str(), unsigned{port},
          timeout_ms));
    }
    if (ready < 0) return Errno("poll(connect)");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::NotFound(StrFormat("connect %s:%u: %s", host.c_str(),
                                        unsigned{port}, std::strerror(err)));
    }
  }
  // Back to blocking mode: callers bound further I/O with SetSocketTimeouts.
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return Errno("fcntl");
  }
  return fd;
}

StatusOr<UniqueFd> StartConnectTcp(const std::string& host, uint16_t port) {
  XFRAG_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return Errno("socket");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    return Status::NotFound(StrFormat("connect %s:%u: %s", host.c_str(),
                                      unsigned{port}, std::strerror(errno)));
  }
  return fd;
}

Status FinishConnectTcp(int fd, const std::string& host, uint16_t port) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::NotFound(StrFormat("connect %s:%u: %s", host.c_str(),
                                      unsigned{port}, std::strerror(err)));
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return Errno("fcntl");
  }
  return Status::OK();
}

Status SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(timeout)");
  }
  return Status::OK();
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer that closed early yields EPIPE, not SIGPIPE.
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

StatusOr<size_t> ReadSome(int fd, char* buf, size_t len) {
  while (true) {
    ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("recv timed out");
    }
    return Errno("recv");
  }
}

StatusOr<std::string> HttpRoundTrip(const std::string& host, uint16_t port,
                                    std::string_view request, int timeout_ms) {
  XFRAG_ASSIGN_OR_RETURN(UniqueFd fd, ConnectTcp(host, port));
  XFRAG_RETURN_NOT_OK(SetSocketTimeouts(fd.get(), timeout_ms));
  XFRAG_RETURN_NOT_OK(WriteAll(fd.get(), request));
  std::string response;
  char buf[16384];
  while (true) {
    XFRAG_ASSIGN_OR_RETURN(size_t n, ReadSome(fd.get(), buf, sizeof(buf)));
    if (n == 0) break;  // Server closed: message complete.
    response.append(buf, n);
  }
  return response;
}

}  // namespace xfrag::server
