// Process, HTTP and statistics plumbing of the xfrag performance ledger:
// shipped daemons run as child processes with their default flags, clients
// hold one keep-alive connection each, and responses are compared after
// stripping the fields that legitimately vary between runs.

#ifndef XFRAG_PERFBENCH_HARNESS_H_
#define XFRAG_PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "router/backend_client.h"

namespace perfbench {

/// \brief One daemon child process. Its stdout and stderr go to `log_path`;
/// the port is read from the "listening on host:port" line it prints, so
/// daemons bind ephemeral ports (--port 0) and never collide.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary args...` and waits (up to 60 s) for its listening line.
  xfrag::Status Start(const std::string& binary,
                      const std::vector<std::string>& args,
                      const std::string& log_path);
  /// SIGTERM (graceful drain), then SIGKILL after 10 s; always reaps.
  void Stop();

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) in MiB, or 0 when the process is gone.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// A finished HTTP exchange; status 0 means a transport error.
struct Reply {
  int status = 0;
  std::string body;
};

/// \brief An HTTP client holding one keep-alive connection to one daemon.
/// Not thread-safe by intent: each load-generator thread owns one.
class Client {
 public:
  explicit Client(uint16_t port);
  Reply Post(const std::string& target, const std::string& body);
  Reply Get(const std::string& target);

 private:
  std::unique_ptr<xfrag::router::BackendClient> backend_;
};

/// \brief Polls GET /healthz until it answers 200 (and, for a router, every
/// shard is healthy) or `timeout_ms` passes.
xfrag::Status WaitHealthy(uint16_t port, int timeout_ms);

/// \brief GET /metrics parsed; an empty object on failure.
xfrag::json::Value FetchMetrics(uint16_t port);

/// \brief A numeric field at a dotted path ("result_cache.hits"), 0 if absent.
double NumberAt(const xfrag::json::Value& root, const std::string& path);

/// \brief Canonical form of a /query or /query_batch response body for the
/// exactness gate: "elapsed_ms", "metrics" and the "result_cache" marker are
/// removed at the top level and inside every batch item, and the batch
/// sharing summary ("batch") is dropped. Unparseable bodies are returned
/// unchanged, so they can only compare equal to themselves.
std::string NormalizedBody(const std::string& body);

/// \brief Counters read from /metrics that survive a snapshot reload: each
/// Observe() adds the growth since the previous observation, and a counter
/// that went down (a reload replaced the service) counts from zero.
class CounterDeltas {
 public:
  void Observe(const std::string& daemon, const xfrag::json::Value& metrics,
               const std::vector<std::string>& paths);
  double Total(const std::string& path) const;

 private:
  std::map<std::string, double> last_;   // daemon + '\x1f' + path
  std::map<std::string, double> total_;  // path
};

/// Nearest-rank percentile of an ascending sample (0 for an empty one).
double Percentile(const std::vector<double>& sorted, double p);
/// Median of an unsorted sample.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // XFRAG_PERFBENCH_HARNESS_H_
