#include "ledger.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "server/service.h"
#include "storage/snapshot.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using xfrag::Status;
using xfrag::StrFormat;
using xfrag::json::Value;

namespace {

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One load thread's private tallies, merged after the join.
struct ThreadTally {
  PhaseResult result;
  ResponseLog log;
  Clock::time_point begin;
  Clock::time_point last_done;
  // Per request: completion ms since the phase began and items answered ok.
  struct Completion {
    double at_ms;
    size_t ok_items;
  };
  std::vector<Completion> completions;
};

// Width of the windows whose median is the phase's qps: a transient stall on
// a shared machine moves one window, not the median.
constexpr double kWindowMs = 1000.0;

// Posts the stream's scheduled reload when it is due (thread 0 only).
void ReloadIfDue(Client& client, const Stream& stream,
                 const ReloadHook& reload, ThreadTally* tally,
                 Clock::time_point* next_reload) {
  if (stream.reload_period_s <= 0 || Clock::now() < *next_reload) return;
  ++tally->result.reloads;
  if (!reload(client)) ++tally->result.reload_failures;
  *next_reload += std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(stream.reload_period_s));
}

Clock::time_point FirstReload(const Stream& stream, Clock::time_point begin) {
  return begin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(stream.reload_period_s / 2));
}

// Sends stream position `position` and tallies it.
void SendOne(Client& client, const Stream& stream, size_t position,
             ThreadTally* tally, Clock::time_point timed_from) {
  Reply reply = client.Post(stream.target, stream.Body(position));
  const Clock::time_point done = Clock::now();
  const bool ok = ReplyOk(reply, stream.items_per_request);
  PhaseResult& result = tally->result;
  ++result.requests;
  result.items += stream.items_per_request;
  if (ok) {
    ++result.ok_requests;
    result.ok_items += stream.items_per_request;
  }
  result.latencies_ms.push_back(MillisBetween(timed_from, done));
  tally->last_done = done;
  tally->completions.push_back({MillisBetween(tally->begin, done),
                                 ok ? stream.items_per_request : 0});
  const uint32_t index = static_cast<uint32_t>(stream.Index(position));
  if (++tally->log.occurrences[index] == 1) {
    tally->log.first.emplace(index, std::move(reply.body));
  }
}

PhaseResult MergeTallies(std::vector<ThreadTally>& tallies,
                         Clock::time_point start, ResponseLog* log) {
  PhaseResult merged;
  Clock::time_point end = start;
  for (ThreadTally& tally : tallies) {
    PhaseResult& r = tally.result;
    merged.requests += r.requests;
    merged.ok_requests += r.ok_requests;
    merged.items += r.items;
    merged.ok_items += r.ok_items;
    merged.reloads += r.reloads;
    merged.reload_failures += r.reload_failures;
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
    merged.generator_lag_ms.insert(merged.generator_lag_ms.end(),
                                   r.generator_lag_ms.begin(),
                                   r.generator_lag_ms.end());
    merged.max_send_late_s =
        std::max(merged.max_send_late_s, r.max_send_late_s);
    if (r.requests > 0) end = std::max(end, tally.last_done);
    if (log != nullptr) log->Merge(std::move(tally.log));
  }
  std::sort(merged.latencies_ms.begin(), merged.latencies_ms.end());
  std::sort(merged.generator_lag_ms.begin(), merged.generator_lag_ms.end());
  merged.duration_s = MillisBetween(start, end) / 1e3;
  // Whole windows only: the tail window is cut short by the deadline.
  const size_t windows =
      static_cast<size_t>(merged.duration_s * 1e3 / kWindowMs);
  merged.window_qps.assign(windows, 0.0);
  for (const ThreadTally& tally : tallies) {
    for (const ThreadTally::Completion& c : tally.completions) {
      const size_t w = static_cast<size_t>(c.at_ms / kWindowMs);
      if (w < windows) {
        merged.window_qps[w] += static_cast<double>(c.ok_items) * 1e3 / kWindowMs;
      }
    }
  }
  return merged;
}

// Runs `check(thread, index, observed_body)` over every logged distinct
// request on kClients threads; `check` returns "" or a mismatch report.
GateResult RunGate(
    const ResponseLog& log,
    const std::function<std::string(int, uint32_t, const std::string&)>&
        check) {
  std::vector<std::pair<uint32_t, const std::string*>> work;
  work.reserve(log.first.size());
  for (const auto& [index, body] : log.first) work.emplace_back(index, &body);
  std::sort(work.begin(), work.end());
  std::atomic<size_t> next{0};
  std::mutex mu;
  GateResult gate;
  gate.distinct_checked = work.size();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < work.size(); i = next++) {
        std::string report = check(t, work[i].first, *work[i].second);
        if (report.empty()) continue;
        std::lock_guard<std::mutex> lock(mu);
        ++gate.distinct_mismatched;
        gate.occurrences_mismatched += log.occurrences.at(work[i].first);
        if (gate.first_mismatch.empty()) gate.first_mismatch = report;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return gate;
}

std::string MismatchReport(const std::string& request,
                           const std::string& observed,
                           const std::string& expected) {
  return StrFormat("request %s\n  observed: %.600s\n  expected: %.600s",
                   request.c_str(), observed.c_str(), expected.c_str());
}

}  // namespace

size_t WarmupRequests(Workload workload) {
  switch (workload) {
    case Workload::kXfragdPoint:
      return 512;
    case Workload::kXfragdAlgebra:
      return 64;
    case Workload::kRouterMixed:
      return 240;  // one pass over the population
    case Workload::kRouterBatch64:
      return 24;
  }
  return 0;
}

// A fifth to a quarter of the closed-loop qps on a 4-core x86-64 host
// (algebra: an eighth, so its ~3 ms requests rarely queue behind each other
// when a neighbour takes a core). At half load every stall on a shared host
// grew the open-loop tail tenfold. Point requests take ~40 us, so at lower
// rates its sending threads and the daemon's workers sleep between requests
// and the open loop mostly measures their wake-up latency.
double OpenRate(Workload workload) {
  switch (workload) {
    case Workload::kXfragdPoint:
      return 20000;
    case Workload::kXfragdAlgebra:
      return 200;
    case Workload::kRouterMixed:
      return 400;
    case Workload::kRouterBatch64:
      return 20;
  }
  return 0;
}

xfrag::server::ServiceOptions XfragdServiceOptions() {
  xfrag::server::ServiceOptions options;
  options.result_cache_bytes = 32u << 20;
  options.fixed_point_cache.max_entries = 4096;
  options.fixed_point_cache.max_bytes = 64u << 20;
  return options;
}

xfrag::StatusOr<std::unique_ptr<Inputs>> PrepareInputs(const Options& options,
                                                       const std::string& dir) {
  auto inputs = std::make_unique<Inputs>();
  inputs->corpus = GenerateCorpus(kCorpusSeed);
  inputs->stream = MakeStream(options.workload, inputs->corpus, options.seed);
  const xfrag::text::IndexOptions index_options;
  inputs->combined_snapshot = dir + "/combined.snap";
  XFRAG_RETURN_NOT_OK(xfrag::storage::WriteSnapshot(
      inputs->corpus.combined, index_options, inputs->combined_snapshot));
  for (size_t s = 0; s < inputs->corpus.shards.size(); ++s) {
    inputs->shard_snapshots.push_back(StrFormat("%s/shard%zu.snap",
                                                dir.c_str(), s));
    XFRAG_RETURN_NOT_OK(xfrag::storage::WriteSnapshot(
        inputs->corpus.shards[s], index_options,
        inputs->shard_snapshots.back()));
  }
  return inputs;
}

Deployment::Deployment(const Options& options, const Inputs& inputs,
                       Shape shape, std::string name)
    : options_(options),
      inputs_(inputs),
      shape_(shape),
      name_(std::move(name)) {}

Status Deployment::Start() {
  Stop();
  const std::string xfragd = options_.bin_dir + "/xfragd";
  auto spawn = [&](const std::string& binary,
                   std::vector<std::string> args,
                   const std::string& log) -> Status {
    daemons_.push_back(std::make_unique<Daemon>());
    std::string command = binary.substr(binary.rfind('/') + 1);
    for (const std::string& arg : args) {
      command += " " + arg.substr(arg.rfind('/') + 1);
    }
    commands_.push_back(command);
    return daemons_.back()->Start(binary, args, log);
  };
  commands_.clear();
  const std::string logs = options_.work_dir + "/" + name_;
  if (shape_ == Shape::kSingle) {
    XFRAG_RETURN_NOT_OK(spawn(
        xfragd, {"--snapshot", inputs_.combined_snapshot, "--port", "0"},
        logs + "-xfragd.log"));
    return WaitHealthy(front_port(), 60000);
  }
  std::string map = "{\"shards\": [";
  const size_t per_shard = kDocuments / inputs_.shard_snapshots.size();
  for (size_t s = 0; s < inputs_.shard_snapshots.size(); ++s) {
    XFRAG_RETURN_NOT_OK(spawn(
        xfragd, {"--snapshot", inputs_.shard_snapshots[s], "--port", "0"},
        StrFormat("%s-shard%zu.log", logs.c_str(), s)));
    map += StrFormat(
        "%s{\"endpoint\": \"127.0.0.1:%u\", \"documents\": {\"begin\": %zu, "
        "\"count\": %zu}}",
        s == 0 ? "" : ", ", daemons_.back()->port(), s * per_shard,
        per_shard);
  }
  map += "]}\n";
  const std::string map_path = logs + "-shards.json";
  {
    std::ofstream out(map_path, std::ios::binary | std::ios::trunc);
    out << map;
    if (!out) return Status::Internal("cannot write " + map_path);
  }
  for (uint16_t port : xfragd_ports()) {
    XFRAG_RETURN_NOT_OK(WaitHealthy(port, 60000));
  }
  XFRAG_RETURN_NOT_OK(
      spawn(options_.bin_dir + "/xfrag_router",
            {"--shard-map", map_path, "--port", "0"}, logs + "-router.log"));
  return WaitHealthy(front_port(), 60000);
}

void Deployment::Stop() {
  // Router first, so it never sees its shards vanish mid-request.
  for (auto it = daemons_.rbegin(); it != daemons_.rend(); ++it) (*it)->Stop();
  daemons_.clear();
}

std::vector<uint16_t> Deployment::xfragd_ports() const {
  std::vector<uint16_t> ports;
  const size_t xfragds =
      shape_ == Shape::kSingle ? daemons_.size()
                               : inputs_.shard_snapshots.size();
  for (size_t i = 0; i < xfragds && i < daemons_.size(); ++i) {
    ports.push_back(daemons_[i]->port());
  }
  return ports;
}

double Deployment::PeakRssMb() const {
  double total = 0.0;
  for (const auto& daemon : daemons_) total += daemon->PeakRssMb();
  return total;
}

Value Deployment::CommandsJson() const {
  Value out = Value::Array();
  for (const std::string& command : commands_) out.Append(command);
  return out;
}

void ResponseLog::Merge(ResponseLog other) {
  for (auto& [index, body] : other.first) first.emplace(index, std::move(body));
  for (const auto& [index, count] : other.occurrences) {
    occurrences[index] += count;
  }
}

bool ReplyOk(const Reply& reply, size_t items_per_request) {
  if (reply.status != 200) return false;
  if (items_per_request <= 1) return true;
  // Batch: every per-item envelope must report 200. Answer objects never
  // carry a "status" key, so counting the envelopes is exact.
  size_t ok = 0;
  for (size_t at = reply.body.find("\"status\":200"); at != std::string::npos;
       at = reply.body.find("\"status\":200", at + 1)) {
    ++ok;
  }
  return ok == items_per_request;
}

bool PostReload(Client& client) {
  return client.Post("/admin/reload", "{}").status == 200;
}

PhaseResult RunClosedLoop(uint16_t port, const Stream& stream, size_t start,
                          double seconds, size_t max_requests,
                          ResponseLog* log, const ReloadHook& reload) {
  std::atomic<size_t> next{start};
  const size_t end = max_requests > std::numeric_limits<size_t>::max() - start
                         ? std::numeric_limits<size_t>::max()
                         : start + max_requests;
  std::vector<ThreadTally> tallies(kClients);
  const Clock::time_point begin = Clock::now();
  for (ThreadTally& tally : tallies) tally.begin = begin;
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client(port);
      Clock::time_point next_reload = FirstReload(stream, begin);
      while (Clock::now() < deadline) {
        if (t == 0) {
          ReloadIfDue(client, stream, reload, &tallies[t], &next_reload);
        }
        const size_t position = next++;
        if (position >= end) break;
        SendOne(client, stream, position, &tallies[t], Clock::now());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseResult result = MergeTallies(tallies, begin, log);
  result.end_position = std::min(next.load(), end);
  return result;
}

PhaseResult RunOpenLoop(uint16_t port, const Stream& stream, size_t start,
                        double rate, double seconds, ResponseLog* log) {
  const size_t total = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<ThreadTally> tallies(kClients);
  const Clock::time_point begin = Clock::now() + std::chrono::milliseconds(5);
  for (ThreadTally& tally : tallies) tally.begin = begin;
  auto due = [&](size_t j) {
    return begin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(j) / rate));
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      // Default 50 us timer slack would show up as latency at the due time.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      Client client(port);
      ThreadTally& tally = tallies[t];
      for (size_t j = static_cast<size_t>(t); j < total; j += kClients) {
        const Clock::time_point due_at = due(j);
        const bool idle = Clock::now() < due_at;
        if (idle) std::this_thread::sleep_until(due_at);
        const Clock::time_point sent = Clock::now();
        if (idle) tally.result.generator_lag_ms.push_back(
            MillisBetween(due_at, sent));
        tally.result.max_send_late_s = std::max(
            tally.result.max_send_late_s, MillisBetween(due_at, sent) / 1e3);
        SendOne(client, stream, start + j, &tally, due_at);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseResult result = MergeTallies(tallies, begin, log);
  result.end_position = start + total;
  return result;
}

Value GateResult::ToJson() const {
  Value out = Value::Object();
  out.Set("distinct_checked", static_cast<uint64_t>(distinct_checked));
  out.Set("distinct_mismatched", static_cast<uint64_t>(distinct_mismatched));
  out.Set("occurrences_mismatched",
          static_cast<uint64_t>(occurrences_mismatched));
  if (!first_mismatch.empty()) out.Set("first_mismatch", first_mismatch);
  return out;
}

GateResult CheckAgainstInProcess(const Inputs& inputs, const ResponseLog& log) {
  auto loaded =
      xfrag::storage::LoadCollectionFromSnapshot(inputs.combined_snapshot);
  if (!loaded.ok()) {
    GateResult gate;
    gate.distinct_mismatched = log.first.size();
    for (const auto& [index, count] : log.occurrences) {
      gate.occurrences_mismatched += count;
    }
    gate.first_mismatch = "cannot open snapshot: " + loaded.status().ToString();
    return gate;
  }
  xfrag::server::QueryService service(loaded->collection,
                                     XfragdServiceOptions());
  const Stream& stream = inputs.stream;
  return RunGate(log, [&](int, uint32_t index, const std::string& observed) {
    const std::string& request = stream.population[index];
    xfrag::server::QueryOutcome outcome =
        stream.target == "/query" ? service.HandleQuery(request)
                                  : service.HandleQueryBatch(request);
    const std::string expected = outcome.body.Dump();
    if (outcome.http_status == 200 &&
        NormalizedBody(observed) == NormalizedBody(expected)) {
      return std::string();
    }
    return MismatchReport(request, observed, expected);
  });
}

GateResult CheckAgainstCombined(uint16_t combined_port, const Stream& stream,
                                const ResponseLog& log) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<Client>(combined_port));
  }
  return RunGate(log, [&](int thread, uint32_t index,
                          const std::string& observed) {
    const std::string& request = stream.population[index];
    Reply expected = clients[thread]->Post(stream.target, request);
    if (ReplyOk(expected, stream.items_per_request) &&
        NormalizedBody(observed) == NormalizedBody(expected.body)) {
      return std::string();
    }
    return MismatchReport(request, observed, expected.body);
  });
}

}  // namespace perfbench
