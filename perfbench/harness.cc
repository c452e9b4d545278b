#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/strings.h"

extern char** environ;

namespace perfbench {

namespace {

using xfrag::Status;
using xfrag::json::Value;

// Reads the bound port out of a daemon's "... listening on host:port" line.
bool ParseListeningPort(const std::string& log, uint16_t* port) {
  size_t at = log.find("listening on ");
  if (at == std::string::npos) return false;
  size_t colon = log.find(':', at);
  size_t end = log.find_first_not_of("0123456789", colon + 1);
  if (colon == std::string::npos || end == std::string::npos ||
      end == colon + 1) {
    return false;
  }
  *port = static_cast<uint16_t>(
      std::stoi(log.substr(colon + 1, end - colon - 1)));
  return true;
}

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Value Normalized(const Value& body) {
  if (!body.is_object()) return body;
  Value out = Value::Object();
  for (const auto& [key, value] : body.members()) {
    if (key == "elapsed_ms" || key == "metrics" || key == "result_cache" ||
        key == "batch") {
      continue;
    }
    if (key == "results" && value.is_array()) {
      Value results = Value::Array();
      for (const Value& item : value.items()) {
        Value entry = Value::Object();
        if (item.is_object()) {
          for (const auto& [item_key, item_value] : item.members()) {
            entry.Set(item_key, item_key == "body" ? Normalized(item_value)
                                                   : item_value);
          }
        }
        results.Append(std::move(entry));
      }
      out.Set(key, std::move(results));
      continue;
    }
    out.Set(key, value);
  }
  return out;
}

}  // namespace

Status Daemon::Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return Status::Internal(
        xfrag::StrFormat("cannot spawn %s (errno %d)", binary.c_str(), rc));
  }
  pid_ = pid;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ParseListeningPort(ReadWhole(log_path), &port_)) return Status::OK();
    int wstatus = 0;
    if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal(binary + " exited at startup: " +
                              ReadWhole(log_path));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  return Status::Internal(binary + " did not report a listening port");
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  for (int i = 0; i < 1000; ++i) {
    if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in(xfrag::StrFormat("/proc/%d/status", static_cast<int>(pid_)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

Client::Client(uint16_t port) {
  xfrag::router::BackendClient::Options options;
  options.max_pool_size = 1;
  options.io_timeout_ms = 120000;
  backend_ = std::make_unique<xfrag::router::BackendClient>("127.0.0.1", port,
                                                            options);
}

Reply Client::Post(const std::string& target, const std::string& body) {
  auto response =
      backend_->Call(backend_->BuildRequest("POST", target, body), 0, nullptr);
  if (!response.ok()) return Reply{};
  return Reply{response->status, std::move(response->body)};
}

Reply Client::Get(const std::string& target) {
  auto response =
      backend_->Call(backend_->BuildRequest("GET", target, ""), 0, nullptr);
  if (!response.ok()) return Reply{};
  return Reply{response->status, std::move(response->body)};
}

Status WaitHealthy(uint16_t port, int timeout_ms) {
  Client client(port);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    Reply reply = client.Get("/healthz");
    if (reply.status == 200) {
      auto parsed = xfrag::json::Parse(reply.body);
      if (parsed.ok()) {
        const Value* shards = parsed->Find("shards");
        const Value* healthy = parsed->Find("healthy_shards");
        if (shards == nullptr || healthy == nullptr ||
            shards->AsDouble() == healthy->AsDouble()) {
          return Status::OK();
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::DeadlineExceeded(
      xfrag::StrFormat("port %u never became healthy", port));
}

Value FetchMetrics(uint16_t port) {
  Client client(port);
  Reply reply = client.Get("/metrics");
  if (reply.status != 200) return Value::Object();
  auto parsed = xfrag::json::Parse(reply.body);
  return parsed.ok() ? *parsed : Value::Object();
}

double NumberAt(const Value& root, const std::string& path) {
  const Value* node = &root;
  for (std::string_view part : xfrag::Split(path, '.')) {
    if (!node->is_object()) return 0.0;
    node = node->Find(part);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->AsDouble() : 0.0;
}

std::string NormalizedBody(const std::string& body) {
  auto parsed = xfrag::json::Parse(body);
  if (!parsed.ok()) return body;
  return Normalized(*parsed).Dump();
}

void CounterDeltas::Observe(const std::string& daemon, const Value& metrics,
                            const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    const double now = NumberAt(metrics, path);
    const std::string key = daemon + '\x1f' + path;
    auto it = last_.find(key);
    if (it != last_.end()) {
      total_[path] += now >= it->second ? now - it->second : now;
    }
    last_[key] = now;
  }
}

double CounterDeltas::Total(const std::string& path) const {
  auto it = total_.find(path);
  return it == total_.end() ? 0.0 : it->second;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p / 100.0 *
                                    static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
