#include "router/router.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "common/timer.h"
#include "common/version.h"
#include "lang/lower.h"
#include "router/merge.h"
#include "server/stats.h"

namespace xfrag::router {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kJsonType = "application/json";

server::HttpServerOptions ToHttpOptions(const RouterOptions& options) {
  server::HttpServerOptions http;
  http.host = options.host;
  http.port = options.port;
  http.workers = options.workers;
  http.queue_capacity = options.queue_capacity;
  http.request_timeout_ms = options.request_timeout_ms;
  http.max_body_bytes = options.max_body_bytes;
  http.keep_alive = options.keep_alive;
  http.keep_alive_idle_timeout_ms = options.keep_alive_idle_timeout_ms;
  http.max_requests_per_connection = options.max_requests_per_connection;
  http.keep_alive_linger_ms = options.keep_alive_linger_ms;
  http.keep_alive_linger_burst = options.keep_alive_linger_burst;
  return http;
}

/// The structured error shape shared with QueryService (service.cc): the
/// router's own errors look exactly like a shard's.
json::Value ErrorJson(const Status& status) {
  json::Value body = json::Value::Object();
  body.Set("error", status.message());
  body.Set("code", std::string(StatusCodeName(status.code())));
  return body;
}

json::Value MissingShardsJson(const std::vector<size_t>& missing) {
  json::Value out = json::Value::Array();
  for (size_t index : missing) out.Append(static_cast<uint64_t>(index));
  return out;
}

/// Reads the fields the merge must know from one query object into `plan`,
/// best-effort: a query the shards would reject keeps the defaults (their
/// 4xx is forwarded anyway). An XQL "q" body carries TOP/RANK/LIMIT/DEADLINE
/// inside the text, so the plan is lowered from it; the body itself is
/// still forwarded untouched, and shards decode "q" themselves. Returns the
/// query's own deadline in ms, or 0 when it sets none.
int ReadMergePlan(const json::Value& query, MergePlan* plan) {
  int deadline_ms = 0;
  if (const json::Value* v = query.Find("top_k");
      v != nullptr && v->is_integral() && v->AsInt() >= 0) {
    plan->top_k = v->AsInt();
  }
  if (const json::Value* v = query.Find("rank");
      v != nullptr && v->is_bool()) {
    plan->rank = v->AsBool();
  }
  if (const json::Value* v = query.Find("max_answers");
      v != nullptr && v->is_integral() && v->AsInt() >= 0) {
    plan->max_answers = v->AsInt();
  }
  if (const json::Value* v = query.Find("deadline_ms");
      v != nullptr && v->is_number() && v->AsDouble() > 0) {
    deadline_ms = static_cast<int>(
        std::clamp(std::ceil(v->AsDouble()), 1.0,
                   static_cast<double>(std::numeric_limits<int>::max())));
  }
  if (const json::Value* v = query.Find("q");
      v != nullptr && v->is_string()) {
    auto lowered = lang::ParseAndLower(v->AsString(), nullptr);
    if (lowered.ok()) {
      if (lowered->top_k >= 0) plan->top_k = lowered->top_k;
      if (lowered->rank || lowered->top_k >= 0) plan->rank = true;
      if (lowered->limit >= 0) plan->max_answers = lowered->limit;
      if (lowered->deadline_ms > 0) {
        // Clamp in 64-bit first: DEADLINE accepts up to 15 digits, and a
        // narrowing cast past INT_MAX would wrap to a bogus tiny budget.
        deadline_ms = static_cast<int>(std::clamp<int64_t>(
            lowered->deadline_ms, 1, std::numeric_limits<int>::max()));
      }
    }
  }
  return deadline_ms;
}

}  // namespace

uint64_t Router::ShardState::P95Micros() const {
  std::lock_guard<std::mutex> lock(mutex);
  return latency.PercentileUpperBoundMicros(95);
}

uint64_t Router::ShardState::LatencyCount() const {
  std::lock_guard<std::mutex> lock(mutex);
  return latency.count();
}

Router::Router(ShardMap map, RouterOptions options)
    : map_(std::move(map)),
      options_(std::move(options)),
      http_(*this, ToHttpOptions(options_)) {
  shards_.reserve(map_.shards.size());
  for (const ShardInfo& info : map_.shards) {
    auto state = std::make_unique<ShardState>();
    state->info = info;
    state->client = std::make_unique<BackendClient>(info.host, info.port,
                                                    options_.backend);
    shards_.push_back(std::move(state));
  }
}

Router::~Router() { Shutdown(); }

Status Router::Start() {
  XFRAG_RETURN_NOT_OK(http_.Start());
  if (options_.health_check_interval_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  started_.store(true);
  return Status::OK();
}

void Router::Shutdown() {
  if (!started_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  http_.Shutdown();
}

size_t Router::HealthyShards() const {
  size_t healthy = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->healthy) ++healthy;
  }
  return healthy;
}

void Router::HealthLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(
          lock,
          std::chrono::milliseconds(options_.health_check_interval_ms),
          [this] { return health_stop_; });
      if (health_stop_) return;
    }
    for (const auto& shard : shards_) {
      std::string probe = shard->client->BuildRequest("GET", "/healthz", "");
      auto result = shard->client->Call(
          probe, options_.health_check_timeout_ms, nullptr);
      bool up = result.ok() && result->status == 200;
      std::lock_guard<std::mutex> lock(shard->mutex);
      if (up != shard->healthy) {
        shard->healthy = up;
        if (up) {
          ++shard->mark_ups;
        } else {
          ++shard->mark_downs;
        }
      }
    }
  }
}

int Router::HedgeDelayMs(int shard_deadline_ms) const {
  uint64_t max_p95_us = 0;
  uint64_t min_samples = std::numeric_limits<uint64_t>::max();
  for (const auto& shard : shards_) {
    max_p95_us = std::max(max_p95_us, shard->P95Micros());
    min_samples = std::min(min_samples, shard->LatencyCount());
  }
  int delay = min_samples < options_.hedge_warmup_samples
                  ? options_.hedge_default_delay_ms
                  : static_cast<int>(max_p95_us / 1000) + 1;
  delay = std::max(delay, options_.hedge_min_delay_ms);
  return std::min(delay, std::max(1, shard_deadline_ms / 2));
}

std::vector<Router::ShardOutcome> Router::ScatterGather(
    const std::string& forward_body, int shard_deadline_ms,
    const std::string& target) {
  const size_t n = shards_.size();
  std::vector<std::string> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    requests.push_back(
        shards_[i]->client->BuildRequest("POST", target, forward_body));
  }

  // legs[i] is shard i's primary; legs[n], once launched, the hedge. A leg's
  // call is reset when it retires; resetting an unfinished call closes its
  // connection rather than pooling it.
  struct Leg {
    size_t shard;
    bool is_hedge;
    Clock::time_point start;
    std::unique_ptr<PolledCall> call;
  };
  std::vector<Leg> legs;
  legs.reserve(n + 1);
  const auto start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    legs.push_back(Leg{i, false, start,
                       std::make_unique<PolledCall>(shards_[i]->client.get(),
                                                    &requests[i])});
  }
  // Retiring a leg feeds its shard's counters: a response is a latency
  // sample, anything else (a failure, a hedge loser, a leg cut at the
  // deadline) is a failure.
  auto retire = [this](Leg& leg, Clock::time_point now) {
    ShardState& shard = *shards_[leg.shard];
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.requests;
      if (leg.call->ok()) {
        shard.latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                  leg.start)
                .count()));
      } else {
        ++shard.failures;
      }
    }
    leg.call.reset();
  };
  auto live_sibling = [&](const Leg& leg) -> Leg* {
    Leg* sibling = leg.is_hedge ? &legs[leg.shard]
                   : legs.size() > n && legs[n].shard == leg.shard
                       ? &legs[n]
                       : nullptr;
    return sibling != nullptr && sibling->call != nullptr ? sibling : nullptr;
  };

  std::vector<ShardOutcome> outcomes(n);
  std::vector<bool> done(n, false);
  size_t outstanding = n;
  // 64-bit sum: shard_deadline_ms can legitimately be INT_MAX (clamped from
  // an oversized client deadline), and + grace must not wrap into the past.
  const int budget_ms =
      std::min(shard_deadline_ms, options_.backend.io_timeout_ms);
  const auto deadline_tp =
      start + std::chrono::milliseconds(static_cast<int64_t>(budget_ms) +
                                        options_.deadline_grace_ms);
  const auto hedge_tp =
      start + std::chrono::milliseconds(HedgeDelayMs(shard_deadline_ms));
  bool hedged = !options_.enable_hedging || n == 0;
  std::vector<pollfd> pollfds;

  while (true) {
    const auto now = Clock::now();
    // Settle finished legs. The first response resolves its shard and
    // retires the sibling; a failure resolves it only when no sibling runs.
    for (Leg& leg : legs) {
      if (leg.call == nullptr) continue;
      leg.call->DialExpired(now);
      if (!leg.call->finished()) continue;
      ShardOutcome& outcome = outcomes[leg.shard];
      Leg* sibling = live_sibling(leg);
      if (leg.call->ok()) {
        BackendResponse& response = leg.call->response();
        outcome.resolved = true;
        outcome.http_status = response.status;
        outcome.body = std::move(response.body);
        if (leg.is_hedge) hedges_won_.fetch_add(1, std::memory_order_relaxed);
        if (sibling != nullptr) retire(*sibling, now);
      } else {
        outcome.error = leg.call->error();
      }
      if (outcome.resolved || sibling == nullptr) {
        done[leg.shard] = true;
        --outstanding;
      }
      retire(leg, now);
    }
    if (outstanding == 0 || now >= deadline_tp) break;

    auto wake = deadline_tp;
    if (!hedged) {
      if (now >= hedge_tp) {
        hedged = true;
        // One hedge per request, aimed at the slowest straggler: of the
        // shards still outstanding, the one with the worst observed p95.
        size_t straggler = n;
        uint64_t worst_p95 = 0;
        for (size_t i = 0; i < n; ++i) {
          if (done[i]) continue;
          uint64_t p95 = shards_[i]->P95Micros();
          if (straggler == n || p95 > worst_p95) {
            straggler = i;
            worst_p95 = p95;
          }
        }
        hedges_launched_.fetch_add(1, std::memory_order_relaxed);
        legs.push_back(Leg{straggler, true, now,
                           std::make_unique<PolledCall>(
                               shards_[straggler]->client.get(),
                               &requests[straggler])});
        continue;  // the hedge may already have failed; settle it first
      }
      wake = std::min(wake, hedge_tp);
    }
    // One pollfd per leg, index for index; poll() skips the negative fd of
    // a retired leg.
    pollfds.clear();
    for (const Leg& leg : legs) {
      if (leg.call == nullptr) {
        pollfds.push_back(pollfd{-1, 0, 0});
        continue;
      }
      wake = std::min(wake, leg.call->dial_deadline());
      pollfds.push_back(pollfd{leg.call->fd(), leg.call->events(), 0});
    }
    // Rounded up and at least 1 ms: the loop never polls with a zero
    // timeout, and wakes at or after the next deadline, never before.
    const auto wait_us =
        std::chrono::duration_cast<std::chrono::microseconds>(wake - now)
            .count();
    const int timeout_ms = static_cast<int>(std::clamp<int64_t>(
        (wait_us + 999) / 1000, 1, std::numeric_limits<int>::max()));
    if (::poll(pollfds.data(), pollfds.size(), timeout_ms) <= 0) continue;
    for (size_t l = 0; l < legs.size(); ++l) {
      if (legs[l].call != nullptr) legs[l].call->Advance(pollfds[l].revents);
    }
  }

  // Shards still outstanding missed the deadline; their legs close.
  const auto now = Clock::now();
  for (Leg& leg : legs) {
    if (leg.call != nullptr) retire(leg, now);
  }
  for (size_t i = 0; i < n; ++i) {
    if (done[i] || !outcomes[i].error.ok()) continue;
    outcomes[i].error = Status::DeadlineExceeded(StrFormat(
        "shard %s did not answer within %d ms",
        shards_[i]->info.Endpoint().c_str(), shard_deadline_ms));
  }
  return outcomes;
}

std::string Router::HandleQuery(const std::string& request_body,
                                int* status_out) {
  Timer timer;
  size_t error_offset = 0;
  auto root = json::Parse(request_body, &error_offset);
  if (!root.ok()) {
    json::Value body = ErrorJson(root.status());
    body.Set("offset", static_cast<uint64_t>(error_offset));
    *status_out = 400;
    return body.Dump();
  }

  bool require_complete = false;
  MergePlan plan;
  int shard_deadline_ms = options_.default_shard_deadline_ms;
  if (root->is_object()) {
    // require_complete is router-protocol only: validate, consume, and
    // strip it before forwarding (a shard would reject the unknown field).
    if (const json::Value* rc = root->Find("require_complete")) {
      if (!rc->is_bool()) {
        *status_out = 400;
        return ErrorJson(Status::InvalidArgument(
                             "\"require_complete\" must be a boolean"))
            .Dump();
      }
      require_complete = rc->AsBool();
      root->Remove("require_complete");
    }
    if (int deadline_ms = ReadMergePlan(*root, &plan); deadline_ms > 0) {
      shard_deadline_ms = deadline_ms;
    }
  }

  // One scatter for every query shape, top-k included: shards hold disjoint
  // documents and an answer never spans documents, so the k-way merge of
  // each shard's own top-k is exactly the global top-k (router/merge.h).
  std::vector<ShardOutcome> outcomes =
      ScatterGather(root->Dump(), shard_deadline_ms, "/query");

  std::vector<ShardBody> bodies;
  std::vector<size_t> missing;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ShardOutcome& outcome = outcomes[i];
    if (outcome.resolved && outcome.http_status == 200) {
      auto parsed = json::Parse(outcome.body);
      if (parsed.ok() && parsed->is_object()) {
        bodies.push_back(ShardBody{i, shards_[i]->info.doc_begin,
                                   std::move(*parsed)});
      } else {
        missing.push_back(i);
      }
    } else if (outcome.resolved && outcome.http_status >= 400 &&
               outcome.http_status < 500) {
      // Validation errors are deterministic across shards (identical
      // request, identical decoder) — the first one speaks for the corpus.
      *status_out = outcome.http_status;
      return std::move(outcome.body);
    } else {
      // 5xx, shard-side 504, transport error, or gather deadline.
      missing.push_back(i);
    }
  }

  return MergeOrRefuse(std::move(bodies), missing, plan, require_complete,
                       timer, status_out)
      .Dump();
}

json::Value Router::MergeOrRefuse(std::vector<ShardBody> bodies,
                                  const std::vector<size_t>& missing,
                                  const MergePlan& plan, bool require_complete,
                                  const Timer& timer, int* status_out) {
  if (bodies.empty() || (require_complete && !missing.empty())) {
    json::Value body = ErrorJson(Status::DeadlineExceeded(
        bodies.empty() ? "no shard answered"
                       : "incomplete result refused (require_complete)"));
    body.Set("missing_shards", MissingShardsJson(missing));
    *status_out = 504;
    return body;
  }
  auto merged = MergeQueryBodies(std::move(bodies), plan,
                                 map_.total_documents, missing);
  if (!merged.ok()) {
    *status_out = 502;
    return ErrorJson(
        Status::Internal("merge failed: " + merged.status().message()));
  }
  if (!missing.empty()) {
    partials_served_.fetch_add(1, std::memory_order_relaxed);
  }
  merged->Set("elapsed_ms", timer.ElapsedMillis());
  *status_out = 200;
  return std::move(*merged);
}

std::string Router::HandleQueryBatch(const std::string& request_body,
                                     int* status_out) {
  Timer timer;
  size_t error_offset = 0;
  auto root = json::Parse(request_body, &error_offset);
  if (!root.ok()) {
    json::Value body = ErrorJson(root.status());
    body.Set("offset", static_cast<uint64_t>(error_offset));
    *status_out = 400;
    return body.Dump();
  }
  // Envelope: a bare array of query objects, or {"queries": [...],
  // "require_complete": bool}. require_complete is batch-wide — the gather
  // has one deadline budget per shard per batch, so completeness is a
  // property of the whole scatter, applied per item at merge time.
  bool require_complete = false;
  const json::Value* queries = nullptr;
  if (root->is_array()) {
    queries = &*root;
  } else if (root->is_object()) {
    for (const auto& [key, value] : root->members()) {
      if (key == "queries") {
        if (!value.is_array()) {
          *status_out = 400;
          return ErrorJson(Status::InvalidArgument(
                               "\"queries\" must be an array of query "
                               "objects"))
              .Dump();
        }
        queries = &value;
      } else if (key == "require_complete") {
        if (!value.is_bool()) {
          *status_out = 400;
          return ErrorJson(Status::InvalidArgument(
                               "\"require_complete\" must be a boolean"))
              .Dump();
        }
        require_complete = value.AsBool();
      } else {
        *status_out = 400;
        return ErrorJson(Status::InvalidArgument(StrFormat(
                             "unknown batch field \"%s\"", key.c_str())))
            .Dump();
      }
    }
    if (queries == nullptr) {
      *status_out = 400;
      return ErrorJson(
                 Status::InvalidArgument("missing required field \"queries\""))
          .Dump();
    }
  } else {
    *status_out = 400;
    return ErrorJson(Status::InvalidArgument(
                         "batch body must be a JSON array or "
                         "{\"queries\": [...]}"))
        .Dump();
  }
  if (queries->size() == 0) {
    *status_out = 400;
    return ErrorJson(
               Status::InvalidArgument("batch must contain at least one query"))
        .Dump();
  }
  if (queries->size() > options_.batch_max_items) {
    *status_out = 400;
    return ErrorJson(Status::InvalidArgument(StrFormat(
                         "batch of %zu items exceeds the %zu-item limit",
                         queries->size(), options_.batch_max_items)))
        .Dump();
  }

  const size_t n_items = queries->size();
  struct ItemState {
    bool forwarded = false;
    size_t forward_position = 0;
    int status = 0;
    json::Value body;
    MergePlan plan;
  };
  std::vector<ItemState> items(n_items);
  json::Value forward = json::Value::Array();
  size_t forwarded_count = 0;
  int shard_deadline_ms = options_.default_shard_deadline_ms;
  for (size_t i = 0; i < n_items; ++i) {
    const json::Value& q = (*queries)[i];
    ItemState& item = items[i];
    if (!q.is_object()) {
      item.status = 400;
      item.body = ErrorJson(Status::InvalidArgument(
          "each batch item must be a JSON object"));
      continue;
    }
    // require_complete lives on the batch envelope; accepting it per item
    // would silently apply to nothing.
    if (q.Find("require_complete") != nullptr) {
      item.status = 400;
      item.body = ErrorJson(Status::InvalidArgument(
          "\"require_complete\" applies to the whole batch; set it on the "
          "batch envelope, not on an item"));
      continue;
    }
    // One deadline budget per shard per batch: wide enough for the most
    // patient item.
    shard_deadline_ms =
        std::max(shard_deadline_ms, ReadMergePlan(q, &item.plan));
    item.forwarded = true;
    item.forward_position = forwarded_count++;
    forward.Append(q);
  }
  batches_routed_.fetch_add(1, std::memory_order_relaxed);
  batch_items_routed_.fetch_add(n_items, std::memory_order_relaxed);

  auto render = [&]() -> std::string {
    json::Value results = json::Value::Array();
    for (ItemState& item : items) {
      json::Value entry = json::Value::Object();
      entry.Set("status", static_cast<int64_t>(item.status));
      entry.Set("body", std::move(item.body));
      results.Append(std::move(entry));
    }
    json::Value body = json::Value::Object();
    body.Set("results", std::move(results));
    body.Set("elapsed_ms", timer.ElapsedMillis());
    *status_out = 200;
    return body.Dump();
  };
  if (forwarded_count == 0) return render();

  // ONE scatter of the whole forwarded sub-batch to every shard: one
  // connection acquisition, one request/response parse, one deadline budget
  // per shard per batch.
  std::vector<ShardOutcome> outcomes =
      ScatterGather(forward.Dump(), shard_deadline_ms, "/query_batch");

  const size_t n_shards = shards_.size();
  struct ShardBatch {
    bool ok = false;  // parsed envelope with one result per forwarded item
    json::Value parsed;
  };
  std::vector<ShardBatch> shard_batches(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    ShardOutcome& outcome = outcomes[s];
    if (outcome.resolved && outcome.http_status == 200) {
      auto parsed = json::Parse(outcome.body);
      const json::Value* results =
          parsed.ok() && parsed->is_object() ? parsed->Find("results")
                                             : nullptr;
      if (results != nullptr && results->is_array() &&
          results->size() == forwarded_count) {
        shard_batches[s].ok = true;
        shard_batches[s].parsed = std::move(*parsed);
      }
      // A malformed 200 envelope degrades to a missing shard per item.
    } else if (outcome.resolved && outcome.http_status >= 400 &&
               outcome.http_status < 500) {
      // A batch-envelope 4xx is deterministic across shards (identical
      // envelope, identical decoder) — the first speaks for the fleet.
      *status_out = outcome.http_status;
      return std::move(outcome.body);
    }
    // Transport errors / 5xx / gather deadline: missing shard per item.
  }

  for (size_t i = 0; i < n_items; ++i) {
    ItemState& item = items[i];
    if (!item.forwarded) continue;
    const size_t p = item.forward_position;
    std::vector<ShardBody> bodies;
    std::vector<size_t> missing;
    int item_4xx_status = 0;
    json::Value item_4xx_body;
    for (size_t s = 0; s < n_shards; ++s) {
      if (!shard_batches[s].ok) {
        missing.push_back(s);
        continue;
      }
      // Item p's result is read only here, so its body moves out.
      json::Value& result = (*shard_batches[s].parsed.Find("results"))[p];
      const json::Value* status =
          result.is_object() ? result.Find("status") : nullptr;
      json::Value* body = result.is_object() ? result.Find("body") : nullptr;
      if (status == nullptr || !status->is_integral() || body == nullptr) {
        missing.push_back(s);
        continue;
      }
      const int64_t code = status->AsInt();
      if (code == 200 && body->is_object()) {
        bodies.push_back(
            ShardBody{s, shards_[s]->info.doc_begin, std::move(*body)});
      } else if (code >= 400 && code < 500) {
        // Per-item validation errors are deterministic across shards too.
        if (item_4xx_status == 0) {
          item_4xx_status = static_cast<int>(code);
          item_4xx_body = std::move(*body);
        }
      } else {
        // Per-item 504/5xx (e.g. an expired item deadline on that shard).
        missing.push_back(s);
      }
    }
    if (item_4xx_status != 0) {
      item.status = item_4xx_status;
      item.body = std::move(item_4xx_body);
      continue;
    }
    item.body = MergeOrRefuse(std::move(bodies), missing, item.plan,
                              require_complete, timer, &item.status);
  }
  return render();
}

json::Value Router::RouterMetricsJson() const {
  json::Value hedges = json::Value::Object();
  hedges.Set("launched", hedges_launched_.load(std::memory_order_relaxed));
  hedges.Set("won", hedges_won_.load(std::memory_order_relaxed));

  json::Value shards = json::Value::Array();
  for (const auto& shard : shards_) {
    json::Value entry = json::Value::Object();
    entry.Set("endpoint", shard->info.Endpoint());
    json::Value documents = json::Value::Object();
    documents.Set("begin", static_cast<uint64_t>(shard->info.doc_begin));
    documents.Set("count", static_cast<uint64_t>(shard->info.doc_count));
    entry.Set("documents", std::move(documents));
    entry.Set("weight", shard->info.weight);
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      entry.Set("healthy", shard->healthy);
      entry.Set("requests", shard->requests);
      entry.Set("failures", shard->failures);
      entry.Set("mark_downs", shard->mark_downs);
      entry.Set("mark_ups", shard->mark_ups);
      entry.Set("latency_us",
                server::StatsRegistry::LatencyToJson(shard->latency));
    }
    BackendClient::PoolStats pool = shard->client->Stats();
    json::Value pool_json = json::Value::Object();
    pool_json.Set("connects", pool.connects);
    pool_json.Set("reuses", pool.reuses);
    pool_json.Set("stale_retries", pool.stale_retries);
    pool_json.Set("pooled", static_cast<uint64_t>(pool.pooled));
    entry.Set("pool", std::move(pool_json));
    shards.Append(std::move(entry));
  }

  json::Value batch = json::Value::Object();
  batch.Set("batches", batches_routed_.load(std::memory_order_relaxed));
  batch.Set("items", batch_items_routed_.load(std::memory_order_relaxed));

  json::Value out = json::Value::Object();
  out.Set("hedges", std::move(hedges));
  out.Set("partials_served",
          partials_served_.load(std::memory_order_relaxed));
  out.Set("batch", std::move(batch));
  out.Set("shards", std::move(shards));
  return out;
}

std::string Router::Dispatch(const server::HttpRequest& request,
                             bool keep_alive, int* status_out,
                             algebra::OpMetrics* metrics_out,
                             bool* has_metrics_out) {
  (void)metrics_out;
  (void)has_metrics_out;
  const std::string& target = request.target;
  if (target == "/query") {
    if (request.method != "POST") {
      *status_out = 405;
      return server::RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /query\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    std::string body = HandleQuery(request.body, status_out);
    return server::RenderHttpResponse(*status_out, kJsonType, body, {},
                                      keep_alive);
  }
  if (target == "/query_batch") {
    if (request.method != "POST") {
      *status_out = 405;
      return server::RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /query_batch\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    std::string body = HandleQueryBatch(request.body, status_out);
    return server::RenderHttpResponse(*status_out, kJsonType, body, {},
                                      keep_alive);
  }
  if (target == "/healthz" || target == "/metrics" || target == "/version") {
    if (request.method != "GET") {
      *status_out = 405;
      return server::RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use GET for this endpoint\",\"status\":405}",
          "Allow: GET\r\n", keep_alive);
    }
    json::Value body;
    if (target == "/healthz") {
      body = json::Value::Object();
      body.Set("status", "ok");
      body.Set("shards", static_cast<uint64_t>(shards_.size()));
      body.Set("healthy_shards", static_cast<uint64_t>(HealthyShards()));
      body.Set("documents", static_cast<uint64_t>(map_.total_documents));
    } else if (target == "/version") {
      body = json::Value::Object();
      body.Set("version", kVersion);
      body.Set("build", BuildInfo("xfrag_router"));
      body.Set("router_protocol_revision",
               static_cast<int64_t>(kRouterProtocolRevision));
    } else {
      body = http_.stats().ToJson();
      body.Set("in_flight", static_cast<int64_t>(InFlight()));
      body.Set("router", RouterMetricsJson());
    }
    *status_out = 200;
    return server::RenderHttpResponse(200, kJsonType, body.Dump(), {},
                                      keep_alive);
  }
  *status_out = 404;
  return server::RenderHttpResponse(
      404, kJsonType, "{\"error\":\"no such endpoint\",\"status\":404}", {},
      keep_alive);
}

}  // namespace xfrag::router
