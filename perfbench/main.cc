// xfrag_perfbench — the load generator and tracer of the xfrag performance
// ledger. perfbench/run.py builds it next to the shipped daemons and runs
//
//   xfrag_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --bin-dir DIR --work-dir DIR [--provenance JSON]
//
// which generates the seeded corpus and request stream, writes the .snap
// snapshots, starts xfragd / xfrag_router as child processes, drives them,
// checks every answer, and prints a record line followed by the result line
// {"correct", "attempted", "failed", "metrics"}. Two helper modes serve the
// self-test: --emit-inputs DIR (write every seeded input for a byte
// comparison) and --self-test-gate (prove the exactness gate rejects a
// planted wrong expectation).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "common/timer.h"
#include "ledger.h"
#include "server/service.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace {

using xfrag::json::Value;

// Setups per run; setup_s is their median.
constexpr int kSetups = 5;

// Share of --seconds spent in the closed-loop phase; the rest is open loop.
// router_batch64 answers ~90 batches/s, so it needs the longer closed share
// to reach ~1000 requests, ten of them beyond the p99.
double ClosedShare(Workload workload) {
  return workload == Workload::kRouterBatch64 ? 0.75 : 0.4;
}

// An open loop measures xfrag only while the generator keeps its schedule:
// the p99 of its wake-up lag must stay within half the gap between one
// thread's sends (at least 1 ms), so a late thread still sends before its
// next request falls due and no backlog forms; and no request may go out
// more than kMaxSendLateS late, stalls and queueing behind slow replies
// included. A host stall can break the limit for a whole phase, so an
// invalid open loop is run again, up to kOpenAttempts times.
constexpr double kMaxSendLateS = 1.0;
constexpr size_t kOpenAttempts = 5;

double GeneratorLagLimitMs(double rate) {
  return std::max(1.0, 500.0 * kClients / rate);
}

bool OpenLoopValid(const PhaseResult& open, double rate) {
  return Percentile(open.generator_lag_ms, 99) <= GeneratorLagLimitMs(rate) &&
         open.max_send_late_s <= kMaxSendLateS;
}

Value Metric(double value, const char* unit) {
  Value metric = Value::Object();
  metric.Set("value", value);
  metric.Set("unit", unit);
  return metric;
}

Value PhaseJson(const PhaseResult& phase) {
  Value out = Value::Object();
  out.Set("requests", static_cast<uint64_t>(phase.requests));
  out.Set("ok_requests", static_cast<uint64_t>(phase.ok_requests));
  out.Set("items", static_cast<uint64_t>(phase.items));
  out.Set("ok_items", static_cast<uint64_t>(phase.ok_items));
  out.Set("reloads", static_cast<uint64_t>(phase.reloads));
  out.Set("reload_failures", static_cast<uint64_t>(phase.reload_failures));
  out.Set("duration_s", phase.duration_s);
  Value window_qps = Value::Array();
  for (double qps : phase.window_qps) window_qps.Append(qps);
  out.Set("window_qps", std::move(window_qps));
  out.Set("latency_samples", static_cast<uint64_t>(phase.latencies_ms.size()));
  out.Set("latency_p50_ms", Percentile(phase.latencies_ms, 50));
  out.Set("latency_p99_ms", Percentile(phase.latencies_ms, 99));
  out.Set("samples_beyond_p99",
          static_cast<uint64_t>(phase.latencies_ms.size() / 100));
  if (!phase.generator_lag_ms.empty() || phase.max_send_late_s > 0) {
    out.Set("generator_lag_p50_ms", Percentile(phase.generator_lag_ms, 50));
    out.Set("generator_lag_p99_ms", Percentile(phase.generator_lag_ms, 99));
    out.Set("generator_lag_max_ms", phase.generator_lag_ms.empty()
                                        ? 0.0
                                        : phase.generator_lag_ms.back());
    out.Set("max_send_late_s", phase.max_send_late_s);
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 Value metrics) {
  Value result = Value::Object();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int RunEndToEnd(const Options& options) {
  auto inputs = PrepareInputs(options, options.work_dir);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const Stream& stream = (*inputs)->stream;
  const bool router = UsesRouter(options.workload);
  Deployment served(options, **inputs,
                    router ? Deployment::Shape::kCluster
                           : Deployment::Shape::kSingle,
                    "served");
  const ReloadHook reload = PostReload;
  const size_t warmup = WarmupRequests(options.workload);

  // Set-up: spawn to healthy plus the fixed warm-up pass, kSetups times on
  // fresh daemons; the last deployment stays up for the measured phases.
  std::vector<double> setups_s;
  for (int k = 0; k < kSetups; ++k) {
    xfrag::Timer timer;
    auto started = served.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", started.ToString().c_str());
      return 1;
    }
    PhaseResult warm = RunClosedLoop(served.front_port(), stream, 0, 3600.0,
                                     warmup, nullptr, reload);
    setups_s.push_back(timer.ElapsedMillis() / 1e3);
    if (warm.ok_requests != warm.requests) {
      std::fprintf(stderr, "perfbench: warm-up requests failed\n");
      return 1;
    }
    if (k + 1 < kSetups) served.Stop();
  }

  ResponseLog log;
  const double closed_s = options.seconds * ClosedShare(options.workload);
  const double open_s = options.seconds - closed_s;
  const double open_rate = OpenRate(options.workload);
  PhaseResult closed =
      RunClosedLoop(served.front_port(), stream, warmup, closed_s,
                    std::numeric_limits<size_t>::max(), &log, reload);
  // Every attempt's requests count as attempted and pass the gate.
  std::vector<PhaseResult> opens;
  size_t open_position = closed.end_position;
  do {
    opens.push_back(RunOpenLoop(served.front_port(), stream, open_position,
                                open_rate, open_s, &log));
    open_position = opens.back().end_position;
  } while (!OpenLoopValid(opens.back(), open_rate) &&
           opens.size() < kOpenAttempts);
  const PhaseResult& open = opens.back();
  const bool open_valid = OpenLoopValid(open, open_rate);
  const double peak_rss_mb = served.PeakRssMb();
  Value commands = served.CommandsJson();
  served.Stop();

  GateResult gate;
  if (router) {
    Deployment combined(options, **inputs, Deployment::Shape::kSingle,
                        "combined");
    auto started = combined.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", started.ToString().c_str());
      return 1;
    }
    gate = CheckAgainstCombined(combined.front_port(), stream, log);
  } else {
    gate = CheckAgainstInProcess(**inputs, log);
  }

  const size_t items = stream.items_per_request;
  uint64_t attempted = closed.items + closed.reloads;
  uint64_t failed = (closed.items - closed.ok_items) + closed.reload_failures +
                    gate.occurrences_mismatched * items;
  for (const PhaseResult& phase : opens) {
    attempted += phase.items + phase.reloads;
    failed += (phase.items - phase.ok_items) + phase.reload_failures;
  }
  failed = std::min(failed, attempted);
  const bool correct = gate.distinct_mismatched == 0;

  Value record = Value::Object();
  record.Set("workload", WorkloadName(options.workload));
  record.Set("seed", options.seed);
  record.Set("traced", false);
  record.Set("provenance", options.provenance);
  Value phases = Value::Object();
  phases.Set("seconds", options.seconds);
  phases.Set("closed_s", closed_s);
  phases.Set("open_s", open_s);
  phases.Set("open_rate_per_s", open_rate);
  phases.Set("clients", static_cast<int64_t>(kClients));
  phases.Set("warmup_requests", static_cast<uint64_t>(warmup));
  phases.Set("setups", static_cast<int64_t>(kSetups));
  record.Set("phase_lengths", std::move(phases));
  record.Set("daemon_commands", std::move(commands));
  record.Set("closed", PhaseJson(closed));
  Value open_json = PhaseJson(open);
  open_json.Set("generator_lag_limit_ms", GeneratorLagLimitMs(open_rate));
  open_json.Set("max_send_late_limit_s", kMaxSendLateS);
  open_json.Set("valid", open_valid);
  record.Set("open", std::move(open_json));
  Value discarded = Value::Array();
  for (size_t i = 0; i + 1 < opens.size(); ++i) {
    discarded.Append(PhaseJson(opens[i]));
  }
  record.Set("open_invalid_attempts", std::move(discarded));
  Value setup_list = Value::Array();
  for (double s : setups_s) setup_list.Append(s);
  record.Set("setup_s", std::move(setup_list));
  record.Set("gate", gate.ToJson());
  std::printf("{\"record\":%s}\n", record.Dump().c_str());

  if (!open_valid) {
    std::fprintf(stderr,
                 "perfbench: open loop invalid: generator lag p99 %.3f ms "
                 "(limit %.3f ms), latest send %.3f s late (limit %.1f s)\n",
                 Percentile(open.generator_lag_ms, 99),
                 GeneratorLagLimitMs(open_rate), open.max_send_late_s,
                 kMaxSendLateS);
    return 3;
  }
  if (!gate.first_mismatch.empty()) {
    std::fprintf(stderr, "perfbench: EXACTNESS MISMATCH: %s\n",
                 gate.first_mismatch.c_str());
  }

  Value metrics = Value::Object();
  metrics.Set("qps", Metric(Median(closed.window_qps), "queries/s"));
  metrics.Set("latency_p50_ms",
              Metric(Percentile(closed.latencies_ms, 50), "ms"));
  metrics.Set("latency_p99_ms",
              Metric(Percentile(closed.latencies_ms, 99), "ms"));
  // The open-loop p99 stays in the record only: scheduler stalls of a few
  // milliseconds on a shared 4-core host move it by 50-150% from run to run,
  // past any bound a regression check could use.
  metrics.Set("open_p50_ms", Metric(Percentile(open.latencies_ms, 50), "ms"));
  metrics.Set("success_rate",
              Metric(1.0 - static_cast<double>(failed) /
                               static_cast<double>(std::max<uint64_t>(
                                   attempted, 1)),
                     "ok/attempted"));
  metrics.Set("setup_s", Metric(Median(setups_s), "s"));
  metrics.Set("peak_rss_mb", Metric(peak_rss_mb, "MiB"));
  PrintResult(correct, attempted, failed, std::move(metrics));
  return correct ? 0 : 2;
}

namespace {

// Writes every seeded input (snapshots and each workload's stream) into
// `dir`, for the self-test's byte-for-byte determinism check.
int EmitInputs(Options options, const std::string& dir) {
  for (Workload workload : kAllWorkloads) {
    options.workload = workload;
    auto inputs = PrepareInputs(options, dir);
    if (!inputs.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   inputs.status().ToString().c_str());
      return 1;
    }
    std::ofstream out(dir + "/" + WorkloadName(workload) + ".requests",
                      std::ios::binary | std::ios::trunc);
    const Stream& stream = (*inputs)->stream;
    out << stream.target << " reload_period_s=" << stream.reload_period_s
        << "\n";
    for (const std::string& body : stream.population) out << body << "\n";
    for (uint32_t index : stream.order) out << index << "\n";
  }
  return 0;
}

// Shifts the first answer's "root" node id: a planted wrong expectation.
bool CorruptFirstAnswer(std::string* body) {
  const std::string key = "\"root\":";
  size_t at = body->find(key);
  if (at == std::string::npos) return false;
  size_t begin = at + key.size();
  size_t end = body->find_first_not_of("0123456789", begin);
  long root = std::stol(body->substr(begin, end - begin));
  body->replace(begin, end - begin, std::to_string(root + 1));
  return true;
}

// Proves the exactness gate's three behaviours on the point workload:
// identical bodies pass, bodies differing only in timing / work metrics /
// the cache marker pass, and one planted wrong answer is caught.
int SelfTestGate(Options options) {
  options.workload = Workload::kXfragdPoint;
  auto inputs = PrepareInputs(options, options.work_dir);
  if (!inputs.ok()) return 1;
  const Stream& stream = (*inputs)->stream;
  auto loaded = xfrag::storage::LoadCollectionFromSnapshot(
      (*inputs)->combined_snapshot);
  if (!loaded.ok()) return 1;
  xfrag::server::QueryService service(loaded->collection);
  ResponseLog clean, benign, planted;
  bool corrupted = false;
  // 32 bodies, and as many more as it takes to reach one with an answer.
  for (uint32_t index = 0;
       index < stream.population.size() && (index < 32 || !corrupted);
       ++index) {
    std::string body =
        service.HandleQuery(stream.population[index]).body.Dump();
    clean.first[index] = body;
    clean.occurrences[index] = 1;
    auto parsed = xfrag::json::Parse(body);
    parsed->Set("elapsed_ms", 12345.0);
    parsed->Set("metrics", Value::Object());
    parsed->Set("result_cache", "hit");
    benign.first[index] = parsed->Dump();
    benign.occurrences[index] = 1;
    if (!corrupted && CorruptFirstAnswer(&body)) corrupted = true;
    planted.first[index] = body;
    planted.occurrences[index] = 1;
  }
  const GateResult on_clean = CheckAgainstInProcess(**inputs, clean);
  const GateResult on_benign = CheckAgainstInProcess(**inputs, benign);
  const GateResult on_planted = CheckAgainstInProcess(**inputs, planted);
  Value report = Value::Object();
  report.Set("clean", on_clean.ToJson());
  report.Set("benign", on_benign.ToJson());
  report.Set("planted", on_planted.ToJson());
  std::printf("%s\n", report.Dump().c_str());
  const bool ok = corrupted && on_clean.distinct_mismatched == 0 &&
                  on_benign.distinct_mismatched == 0 &&
                  on_planted.distinct_mismatched == 1;
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: xfrag_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --bin-dir D --work-dir D "
               "[--provenance JSON]\n"
               "       xfrag_perfbench --emit-inputs DIR --seed N\n"
               "       xfrag_perfbench --self-test-gate --work-dir D\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string emit_dir;
  bool self_test_gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      auto workload = ParseWorkload(argv[++i]);
      if (!workload.ok()) {
        std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
        return 2;
      }
      options.workload = *workload;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--bin-dir" && has_value) {
      options.bin_dir = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--provenance" && has_value) {
      auto parsed = xfrag::json::Parse(argv[++i]);
      if (!parsed.ok()) return Usage();
      options.provenance = *parsed;
    } else if (arg == "--emit-inputs" && has_value) {
      emit_dir = argv[++i];
    } else if (arg == "--self-test-gate") {
      self_test_gate = true;
    } else {
      return Usage();
    }
  }
  if (!emit_dir.empty()) return EmitInputs(options, emit_dir);
  if (options.work_dir.empty()) return Usage();
  if (self_test_gate) return SelfTestGate(options);
  if (options.bin_dir.empty() || options.seconds <= 0) return Usage();
  return options.trace ? RunTraced(options) : RunEndToEnd(options);
}
