// The ledger's moving parts shared by the end-to-end run (main.cc) and the
// traced run (trace.cc): seeded inputs on disk, the deployment of shipped
// daemons a workload runs against, the closed- and open-loop load phases,
// and the exactness gate.

#ifndef XFRAG_PERFBENCH_LEDGER_H_
#define XFRAG_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "corpus.h"
#include "harness.h"
#include "server/service.h"

namespace perfbench {

inline constexpr int kClients = 4;

struct Options {
  Workload workload = Workload::kXfragdPoint;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   // holds xfragd and xfrag_router
  std::string work_dir;  // scratch space for snapshots and daemon logs
  xfrag::json::Value provenance = xfrag::json::Value::Object();
};

/// Generated corpus, its snapshots on disk, and the workload's stream.
struct Inputs {
  Corpus corpus;
  Stream stream;
  std::string combined_snapshot;
  std::vector<std::string> shard_snapshots;
};

/// \brief Generates the inputs for `options` and writes the snapshots into
/// `dir` with storage::WriteSnapshot.
xfrag::StatusOr<std::unique_ptr<Inputs>> PrepareInputs(const Options& options,
                                                       const std::string& dir);

/// The fixed warm-up pass that ends every setup, in stream requests.
size_t WarmupRequests(Workload workload);

/// Open-loop arrival rate in requests per second (a batch is one request).
double OpenRate(Workload workload);

/// xfragd's default ServiceOptions (src/server/xfragd_main.cc), for the
/// in-process replicas of the daemon.
xfrag::server::ServiceOptions XfragdServiceOptions();

/// \brief The daemons serving one workload: a single xfragd over the whole
/// corpus, or xfrag_router over kShards xfragd shards. Every daemon runs
/// with its default flags apart from `--port 0`.
class Deployment {
 public:
  enum class Shape { kSingle, kCluster };

  Deployment(const Options& options, const Inputs& inputs, Shape shape,
             std::string name);
  ~Deployment() { Stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Spawns every daemon and waits until all of them answer /healthz.
  xfrag::Status Start();
  void Stop();

  /// Port the workload's clients talk to (xfragd or the router).
  uint16_t front_port() const { return daemons_.back()->port(); }
  /// Ports of the xfragd processes (the single daemon or the shards).
  std::vector<uint16_t> xfragd_ports() const;
  /// VmHWM summed over every daemon process, MiB.
  double PeakRssMb() const;
  /// The command lines used, for the provenance record.
  xfrag::json::Value CommandsJson() const;

 private:
  const Options& options_;
  const Inputs& inputs_;
  Shape shape_;
  std::string name_;
  std::vector<std::unique_ptr<Daemon>> daemons_;  // shards first, router last
  std::vector<std::string> commands_;
};

/// \brief The first response body seen for each distinct request of a
/// phase, plus how often each was sent — the exactness gate's input.
struct ResponseLog {
  std::unordered_map<uint32_t, std::string> first;
  std::unordered_map<uint32_t, size_t> occurrences;

  void Merge(ResponseLog other);
};

/// Outcome of one load phase.
struct PhaseResult {
  size_t requests = 0;       // HTTP query requests sent
  size_t ok_requests = 0;    // ... answered 200 with every item 200
  size_t items = 0;          // queries sent (a batch item counts as one)
  size_t ok_items = 0;
  size_t reloads = 0;        // POST /admin/reload calls
  size_t reload_failures = 0;
  double duration_s = 0.0;
  std::vector<double> latencies_ms;  // ascending
  /// Items answered ok per whole second of the phase (by completion time).
  std::vector<double> window_qps;
  size_t end_position = 0;           // next unused stream position
  // Open loop only: how far the generator's sends trailed their due time
  // when the sending thread was idle (a generator stall, not queueing), and
  // the latest any request went out (stalls plus queueing behind replies).
  std::vector<double> generator_lag_ms;  // ascending
  double max_send_late_s = 0.0;
};

/// Called before a due reload; the default posts /admin/reload itself.
using ReloadHook = std::function<bool(Client&)>;

/// \brief Closed loop: kClients threads, one keep-alive connection each,
/// draw stream positions from `start` until `seconds` pass or
/// `max_requests` were sent.
PhaseResult RunClosedLoop(uint16_t port, const Stream& stream, size_t start,
                          double seconds, size_t max_requests,
                          ResponseLog* log, const ReloadHook& reload);

/// \brief Open loop at `rate` requests/s for `seconds`: request j is due at
/// j / rate and is sent by thread j % kClients; latency runs from the due
/// time, so a stall is charged to every request it delays. No reloads: a
/// reload would block its sending thread and charge its own round trip to
/// the requests queued behind it.
PhaseResult RunOpenLoop(uint16_t port, const Stream& stream, size_t start,
                        double rate, double seconds, ResponseLog* log);

/// Posts /admin/reload (same snapshot) and reports success.
bool PostReload(Client& client);

/// Exactness gate verdict.
struct GateResult {
  size_t distinct_checked = 0;
  size_t distinct_mismatched = 0;
  size_t occurrences_mismatched = 0;
  std::string first_mismatch;

  xfrag::json::Value ToJson() const;
};

/// \brief Checks every logged xfragd response against an in-process
/// QueryService with xfragd's default options over the same snapshot.
GateResult CheckAgainstInProcess(const Inputs& inputs, const ResponseLog& log);

/// \brief Checks every logged router response against a single xfragd
/// daemon (listening on `combined_port`) holding the whole corpus.
GateResult CheckAgainstCombined(uint16_t combined_port, const Stream& stream,
                                const ResponseLog& log);

/// True when a reply is a 200 whose batch items (if any) are all 200.
bool ReplyOk(const Reply& reply, size_t items_per_request);

/// The end-to-end and traced runs; both print their result line.
int RunEndToEnd(const Options& options);
int RunTraced(const Options& options);

}  // namespace perfbench

#endif  // XFRAG_PERFBENCH_LEDGER_H_
