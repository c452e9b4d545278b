#include "router/backend_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace xfrag::router {

using server::HttpResponseParser;
using server::ReadSome;
using server::SetSocketTimeouts;
using server::UniqueFd;
using server::WriteAll;

void CallCancel::Cancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  canceled_ = true;
  if (fd_ >= 0) {
    // shutdown, not close: the owning Call() still holds the fd open, so the
    // descriptor number cannot be recycled under us; its blocked recv/send
    // returns immediately with EOF/EPIPE.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

bool CallCancel::canceled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return canceled_;
}

bool CallCancel::Arm(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (canceled_) return false;
  fd_ = fd;
  return true;
}

void CallCancel::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  fd_ = -1;
}

BackendClient::BackendClient(std::string host, uint16_t port, Options options)
    : host_(std::move(host)), port_(port), options_(options) {
  if (options_.max_connect_attempts < 1) options_.max_connect_attempts = 1;
}

BackendClient::~BackendClient() = default;

std::string BackendClient::BuildRequest(std::string_view method,
                                        std::string_view target,
                                        std::string_view body) const {
  std::string out;
  out.reserve(body.size() + 160);
  out.append(method);
  out.append(" ");
  out.append(target);
  out.append(" HTTP/1.1\r\nHost: ");
  out.append(StrFormat("%s:%u", host_.c_str(), unsigned{port_}));
  out.append("\r\nContent-Type: application/json\r\nContent-Length: ");
  out.append(StrFormat("%zu", body.size()));
  out.append("\r\nConnection: keep-alive\r\n\r\n");
  out.append(body);
  return out;
}

UniqueFd BackendClient::TakePooled() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_.empty()) return UniqueFd();
  UniqueFd fd = std::move(pool_.back());
  pool_.pop_back();
  ++reuses_;
  return fd;
}

void BackendClient::ReturnPooled(UniqueFd fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_.size() < options_.max_pool_size) pool_.push_back(std::move(fd));
}

BackendClient::PoolStats BackendClient::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolStats stats;
  stats.connects = connects_;
  stats.reuses = reuses_;
  stats.stale_retries = stale_retries_;
  stats.pooled = pool_.size();
  return stats;
}

StatusOr<BackendResponse> BackendClient::Exchange(
    UniqueFd* conn, const std::string& request_bytes, int timeout_ms,
    const std::shared_ptr<CallCancel>& cancel, bool* saw_bytes) {
  *saw_bytes = false;
  if (cancel != nullptr && !cancel->Arm(conn->get())) {
    return Status::DeadlineExceeded("call canceled");
  }
  // Disarm before every return below so Cancel() never touches a descriptor
  // we have already handed back to the pool (or closed).
  auto finish = [&](StatusOr<BackendResponse> result) {
    if (cancel != nullptr) cancel->Disarm();
    return result;
  };

  (void)SetSocketTimeouts(conn->get(), timeout_ms);
  Status written = WriteAll(conn->get(), request_bytes);
  if (!written.ok()) return finish(std::move(written));

  HttpResponseParser parser(options_.max_response_bytes);
  char buf[16 * 1024];
  auto state = HttpResponseParser::State::kNeedMore;
  while (state == HttpResponseParser::State::kNeedMore) {
    auto n = ReadSome(conn->get(), buf, sizeof(buf));
    if (!n.ok()) {
      *saw_bytes = parser.saw_bytes();
      return finish(n.status());
    }
    if (*n == 0) {
      state = parser.OnEof();
      break;
    }
    state = parser.Feed(std::string_view(buf, *n));
    *saw_bytes = parser.saw_bytes();
  }
  if (state != HttpResponseParser::State::kComplete) {
    *saw_bytes = parser.saw_bytes();
    return finish(Status::Internal(StrFormat(
        "bad response from %s:%u: %s", host_.c_str(), unsigned{port_},
        parser.error().empty() ? "connection closed mid-response"
                               : parser.error().c_str())));
  }
  if (cancel != nullptr) cancel->Disarm();
  if (cancel != nullptr && cancel->canceled()) {
    // The cancel raced with completion; the response is whole, but the
    // socket may have been shut down mid-keep-alive. Do not reuse it.
    BackendResponse response;
    response.status = parser.response().status;
    response.body = parser.response().body;
    return response;
  }

  BackendResponse response;
  response.status = parser.response().status;
  response.body = parser.response().body;
  if (parser.response().keep_alive) {
    ReturnPooled(std::move(*conn));
  }
  return response;
}

StatusOr<BackendResponse> BackendClient::Call(
    const std::string& request_bytes, int deadline_ms,
    const std::shared_ptr<CallCancel>& cancel) {
  int timeout_ms = options_.io_timeout_ms;
  if (deadline_ms > 0) timeout_ms = std::min(timeout_ms, deadline_ms);
  if (timeout_ms < 1) timeout_ms = 1;

  // First try a pooled connection. A keep-alive peer may close an idle
  // connection at any time, so a pooled exchange that dies before the first
  // response byte is retried on a fresh dial — it never reached dispatch.
  UniqueFd pooled = TakePooled();
  if (pooled.valid()) {
    bool saw_bytes = false;
    bool reused_cancel = cancel != nullptr && cancel->canceled();
    auto result = Exchange(&pooled, request_bytes, timeout_ms, cancel,
                           &saw_bytes);
    if (result.ok()) {
      result->reused_connection = true;
      return result;
    }
    if (saw_bytes || reused_cancel || (cancel != nullptr && cancel->canceled())) {
      return result;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stale_retries_;
  }

  Status last = Status::Internal("unreachable");
  for (int attempt = 0; attempt < options_.max_connect_attempts; ++attempt) {
    if (cancel != nullptr && cancel->canceled()) {
      return Status::DeadlineExceeded("call canceled");
    }
    int connect_timeout = std::min(options_.connect_timeout_ms, timeout_ms);
    auto conn = server::ConnectTcpTimeout(host_, port_, connect_timeout);
    if (!conn.ok()) {
      last = conn.status();
      continue;  // bounded retry on connect failure only
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++connects_;
    }
    bool saw_bytes = false;
    auto result = Exchange(&*conn, request_bytes, timeout_ms, cancel,
                           &saw_bytes);
    if (result.ok()) return result;
    // A fresh connection that failed is not retried: the request may have
    // reached the server (saw_bytes aside, the write went out).
    return result.status();
  }
  return last;
}

PolledCall::PolledCall(BackendClient* client, const std::string* request)
    : client_(client),
      request_(request),
      parser_(client->options_.max_response_bytes) {
  conn_ = client_->TakePooled();
  if (!conn_.valid()) {
    Dial();
    return;
  }
  pooled_ = true;
  response_.reused_connection = true;
  state_ = State::kWriting;
  Write();
}

short PolledCall::events() const {
  return state_ == State::kReading ? POLLIN : POLLOUT;
}

PolledCall::Clock::time_point PolledCall::dial_deadline() const {
  return state_ == State::kConnecting ? dial_deadline_
                                      : Clock::time_point::max();
}

void PolledCall::Dial() {
  state_ = State::kConnecting;
  while (dial_attempts_ < client_->options_.max_connect_attempts) {
    ++dial_attempts_;
    auto conn = server::StartConnectTcp(client_->host_, client_->port_);
    if (!conn.ok()) {
      error_ = conn.status();
      continue;  // refused at once: the next attempt, as in Call()
    }
    conn_ = std::move(*conn);
    dial_deadline_ = Clock::now() + std::chrono::milliseconds(
                                        client_->options_.connect_timeout_ms);
    return;
  }
  Fail(error_);
}

void PolledCall::DialExpired(Clock::time_point now) {
  if (state_ != State::kConnecting || now < dial_deadline_) return;
  conn_.Reset();
  error_ = Status::DeadlineExceeded(StrFormat(
      "connect %s:%u timed out after %d ms", client_->host_.c_str(),
      unsigned{client_->port_}, client_->options_.connect_timeout_ms));
  Dial();
}

void PolledCall::Advance(short revents) {
  if (revents == 0) return;
  switch (state_) {
    case State::kConnecting:
      OnConnected();
      return;
    case State::kWriting:
      Write();
      return;
    case State::kReading:
      Read();
      return;
    default:
      return;
  }
}

void PolledCall::OnConnected() {
  Status connected = server::FinishConnectTcp(conn_.get(), client_->host_,
                                              client_->port_);
  if (!connected.ok()) {
    conn_.Reset();
    error_ = std::move(connected);
    Dial();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(client_->mutex_);
    ++client_->connects_;
  }
  state_ = State::kWriting;
  Write();
}

void PolledCall::Write() {
  while (written_ < request_->size()) {
    ssize_t n = ::send(conn_.get(), request_->data() + written_,
                       request_->size() - written_,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // poll POLLOUT
      OnIoError(Status::Internal(StrFormat("send: %s", std::strerror(errno))));
      return;
    }
    written_ += static_cast<size_t>(n);
  }
  state_ = State::kReading;
}

void PolledCall::Read() {
  // One recv per readiness report: poll is level-triggered, so bytes left
  // in the socket show up on the next round.
  char buf[16 * 1024];
  ssize_t n = 0;
  do {
    n = ::recv(conn_.get(), buf, sizeof(buf), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    OnIoError(Status::Internal(StrFormat("recv: %s", std::strerror(errno))));
    return;
  }
  auto state = n == 0 ? parser_.OnEof()
                      : parser_.Feed(std::string_view(buf, n));
  if (state == HttpResponseParser::State::kNeedMore && n > 0) return;
  if (state != HttpResponseParser::State::kComplete) {
    OnIoError(Status::Internal(StrFormat(
        "bad response from %s:%u: %s", client_->host_.c_str(),
        unsigned{client_->port_},
        parser_.error().empty() ? "connection closed mid-response"
                                : parser_.error().c_str())));
    return;
  }
  response_.status = parser_.response().status;
  response_.body = parser_.response().body;
  if (parser_.response().keep_alive) {
    client_->ReturnPooled(std::move(conn_));
  } else {
    conn_.Reset();
  }
  state_ = State::kDone;
}

void PolledCall::OnIoError(Status status) {
  if (!pooled_ || parser_.saw_bytes()) {
    Fail(std::move(status));
    return;
  }
  // A stale pooled connection: the request never reached the shard's
  // handler, so it goes out again on a fresh dial.
  {
    std::lock_guard<std::mutex> lock(client_->mutex_);
    ++client_->stale_retries_;
  }
  pooled_ = false;
  response_.reused_connection = false;
  written_ = 0;
  parser_ = HttpResponseParser(client_->options_.max_response_bytes);
  conn_.Reset();
  Dial();
}

void PolledCall::Fail(Status status) {
  conn_.Reset();
  error_ = std::move(status);
  state_ = State::kFailed;
}

}  // namespace xfrag::router
