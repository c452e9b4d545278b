// The traced run: per-layer numbers for one workload's request stream.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions — nothing inside the daemons is instrumented:
//
//  * four closed-loop phases against the workload's front daemon, untraced
//    and traced in ABBA order (a traced phase has /metrics read around it);
//    the qps gap between the two kinds is trace.overhead_share;
//  * one single-client pass over a fixed slice of the stream that sends each
//    body to the combined xfragd, the router and every shard directly, and
//    repeats the server-side work in-process (json::Parse,
//    lang::ParseAndLower, QueryService::HandleQuery / HandleQueryBatch,
//    QueryEngine::BuildPlan / Evaluate / EvaluatePlan, AnswerToJson + Dump,
//    router::MergeQueryBodies, query::EvaluateBatch);
//  * snapshot open and reload timings.
//
// Counters come from /metrics as deltas over the run (reload-aware) and from
// the in-process QueryOutcome::metrics, which are exact with one client.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <mutex>

#include "common/strings.h"
#include "common/timer.h"
#include "lang/lower.h"
#include "ledger.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/fixed_point_cache.h"
#include "query/optimizer.h"
#include "router/merge.h"
#include "server/service.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace {

using xfrag::json::Value;
namespace query = xfrag::query;

constexpr double kMiB = 1024.0 * 1024.0;
// Shares of --seconds for the untraced and for the traced closed-loop
// phases (each split in two), and the time cap of the single-client pass.
constexpr double kPhaseShare = 0.25;
constexpr double kPassCapShare = 0.6;
constexpr int kRepeats = 3;  // snapshot opens and reloads timed
constexpr int kBatchRepeats = 3;  // timed rounds of each batch comparison

// Stream requests in the single-client pass (fixed, so counters repeat).
size_t PassRequests(Workload workload) {
  switch (workload) {
    case Workload::kXfragdPoint:
      return 1500;
    case Workload::kXfragdAlgebra:
      return 200;
    case Workload::kRouterMixed:
      return 200;
    case Workload::kRouterBatch64:
      return 6;
  }
  return 0;
}

template <typename Fn>
double TimeUs(Fn&& fn) {
  xfrag::Timer timer;
  fn();
  return timer.ElapsedMillis() * 1e3;
}

// One /query item decoded the way QueryService decodes it.
struct Decoded {
  bool ok = false;
  query::Query query;
  std::shared_ptr<const query::PlanNode> plan;  // composed XQL only
  query::Strategy strategy = query::Strategy::kAuto;
  int64_t top_k = -1;
  int64_t max_answers = -1;
};

Decoded Decode(const Value& item, std::vector<double>* lower_us) {
  Decoded out;
  if (!item.is_object()) return out;
  if (const Value* q = item.Find("q"); q != nullptr && q->is_string()) {
    xfrag::StatusOr<xfrag::lang::LoweredQuery> lowered =
        xfrag::Status::Internal("unset");
    lower_us->push_back(TimeUs([&] {
      lowered = xfrag::lang::ParseAndLower(q->AsString(), nullptr);
    }));
    if (!lowered.ok()) return out;
    if (lowered->canonical) {
      out.query = lowered->canonical_query;
      out.strategy = lowered->strategy;
    } else {
      out.plan = lowered->plan;
      out.query.terms = lowered->scan_terms;
    }
    out.top_k = lowered->top_k;
    out.max_answers = lowered->limit;
    out.ok = true;
    return out;
  }
  const Value* terms = item.Find("terms");
  if (terms == nullptr || !terms->is_array()) return out;
  for (const Value& term : terms->items()) {
    out.query.terms.push_back(term.AsString());
  }
  if (const Value* filter = item.Find("filter")) {
    auto parsed = query::ParseFilterExpression(filter->AsString());
    if (!parsed.ok()) return out;
    out.query.filter = *parsed;
  }
  if (const Value* strategy = item.Find("strategy")) {
    auto parsed = xfrag::server::ParseStrategyName(strategy->AsString());
    if (!parsed.ok()) return out;
    out.strategy = *parsed;
  }
  if (const Value* k = item.Find("top_k")) out.top_k = k->AsInt();
  if (const Value* m = item.Find("max_answers")) out.max_answers = m->AsInt();
  out.ok = true;
  return out;
}

std::vector<Value> BodyItems(const Value& body) {
  if (body.is_array()) return body.items();
  return {body};
}

bool HasAllTerms(const xfrag::collection::CollectionEntry& entry,
                 const query::Query& q) {
  for (const std::string& term : q.terms) {
    if (entry.index.Lookup(term).empty()) return false;
  }
  return true;
}

// The in-process replica of the engine work behind one item: plan, evaluate
// and render, per document, as QueryService does it.
struct EngineTimings {
  double plan_us = 0.0;
  size_t plans = 0;
  double eval_ms = 0.0;
  double render_us = 0.0;
};

EngineTimings RunEngine(
    const xfrag::collection::Collection& collection, const Decoded& item,
    std::vector<std::unique_ptr<query::FixedPointCache>>& caches) {
  EngineTimings t;
  Value answers = Value::Array();
  for (size_t d = 0; d < collection.size(); ++d) {
    const xfrag::collection::CollectionEntry& entry = collection.entry(d);
    if (!HasAllTerms(entry, item.query)) continue;
    query::QueryEngine engine(entry.document, entry.index);
    if (item.plan == nullptr) {
      t.plan_us += TimeUs([&] {
        query::Strategy strategy = item.strategy;
        if (strategy == query::Strategy::kAuto) {
          strategy = query::ChooseStrategy(item.query, entry.document,
                                           entry.index)
                         .strategy;
        }
        (void)engine.BuildPlan(item.query, strategy);
      });
      ++t.plans;
    }
    query::EvalOptions eval;
    eval.strategy = item.strategy;
    eval.executor.fixed_point_cache = caches[d].get();
    eval.executor.subtree_classes = &entry.classes;
    if (item.top_k >= 0) eval.top_k = item.top_k;
    xfrag::StatusOr<query::EvalResult> result =
        xfrag::Status::Internal("unset");
    t.eval_ms += TimeUs([&] {
      result = item.plan != nullptr
                   ? engine.EvaluatePlan(*item.plan, item.query.terms, eval)
                   : engine.Evaluate(item.query, eval);
    }) / 1e3;
    if (!result.ok()) continue;
    t.render_us += TimeUs([&] {
      for (const auto& fragment : result->answers.Sorted()) {
        if (item.max_answers >= 0 &&
            answers.size() >= static_cast<size_t>(item.max_answers)) {
          break;
        }
        answers.Append(xfrag::server::QueryService::AnswerToJson(
            entry.name, d, fragment, entry.document, false));
      }
    });
  }
  t.render_us += TimeUs([&] { (void)answers.Dump(); });
  return t;
}

// Parses a batch reply into its per-item bodies (empty on failure).
std::vector<Value> ReplyItems(const Reply& reply, bool batch) {
  auto parsed = xfrag::json::Parse(reply.body);
  if (!parsed.ok()) return {};
  if (!batch) return {*parsed};
  std::vector<Value> items;
  if (const Value* results = parsed->Find("results")) {
    for (const Value& result : results->items()) {
      const Value* body = result.Find("body");
      items.push_back(body != nullptr ? *body : Value::Object());
    }
  }
  return items;
}

// True when a rendered /query body came from the result cache.
bool CacheHit(const Value& body) {
  return body.Find("result_cache") != nullptr;
}

const std::vector<std::string> kServerCounters = {
    "requests.by_status.503",      "result_cache.hits",
    "result_cache.misses",         "result_cache.evictions",
    "fixed_point_cache.hits",      "fixed_point_cache.misses",
    "fixed_point_cache.evictions"};
const std::vector<std::string> kRouterCounters = {
    "router.hedges.launched",
    "router.hedges.won",
    "router.distributed_topk.bounds_pushed",
    "router.distributed_topk.threshold_updates_sent",
    "router.distributed_topk.threshold_updates_applied",
    "router.distributed_topk.fallback_rescatter"};

double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// Engine-level batch comparison of one class of items (full or top-k):
// query::EvaluateBatch against the same items evaluated one by one, per
// document, with no fixed-point cache on either side. Each sample is one
// timed round over every document.
struct BatchClassTimings {
  std::vector<double> batch_ms, sequential_ms;
  double shared = 0.0, scans = 0.0;
};

// (p75 - p25) / p50 of a sample: the spread a gap must exceed to count.
double Spread(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Ratio(Percentile(values, 75) - Percentile(values, 25),
               Percentile(values, 50));
}

Value TimingsJson(const BatchClassTimings& t) {
  Value out = Value::Object();
  for (const auto& [name, series] :
       {std::pair{"batch_ms", &t.batch_ms},
        std::pair{"sequential_ms", &t.sequential_ms}}) {
    Value values = Value::Array();
    for (double v : *series) values.Append(v);
    out.Set(name, std::move(values));
  }
  out.Set("batch_spread", Spread(t.batch_ms));
  out.Set("sequential_spread", Spread(t.sequential_ms));
  // batch / sequential per round: batches of unequal cost spread each side,
  // not the pairwise ratio.
  std::vector<double> ratios;
  for (size_t i = 0; i < t.batch_ms.size(); ++i) {
    ratios.push_back(Ratio(t.batch_ms[i], t.sequential_ms[i]));
  }
  std::sort(ratios.begin(), ratios.end());
  for (const auto& [name, p] :
       {std::pair{"ratio_p25", 25.0}, std::pair{"ratio_p50", 50.0},
        std::pair{"ratio_p75", 75.0}}) {
    out.Set(name, Percentile(ratios, p));
  }
  return out;
}

// Per document, both sides run once untimed and then kBatchRepeats timed
// rounds whose order alternates with the round and the document, so
// neither side always runs on postings and CPU caches the other warmed.
void CompareBatch(const xfrag::collection::Collection& collection,
                  const std::vector<const Decoded*>& items,
                  BatchClassTimings* out) {
  if (items.empty()) return;
  std::vector<double> batch_ms(kBatchRepeats, 0.0);
  std::vector<double> sequential_ms(kBatchRepeats, 0.0);
  for (size_t d = 0; d < collection.size(); ++d) {
    const xfrag::collection::CollectionEntry& entry = collection.entry(d);
    std::vector<query::BatchItem> batch;
    for (const Decoded* item : items) {
      if (!HasAllTerms(entry, item->query)) continue;
      query::BatchItem b;
      b.query = &item->query;
      b.options.strategy = item->strategy;
      b.options.executor.subtree_classes = &entry.classes;
      if (item->top_k >= 0) b.options.top_k = item->top_k;
      batch.push_back(std::move(b));
      out->scans += static_cast<double>(item->query.terms.size());
    }
    if (batch.empty()) continue;
    query::QueryEngine engine(entry.document, entry.index);
    auto run_batch = [&](query::BatchEvalStats* stats) {
      (void)query::EvaluateBatch(entry.document, entry.index, batch, d, stats);
    };
    auto run_sequential = [&] {
      for (const query::BatchItem& b : batch) {
        (void)engine.Evaluate(*b.query, b.options);
      }
    };
    query::BatchEvalStats stats;
    run_batch(&stats);
    run_sequential();
    out->shared += static_cast<double>(stats.subplans_shared);
    for (int r = 0; r < kBatchRepeats; ++r) {
      const bool batch_first = (r + d) % 2 == 0;
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == batch_first) {
          batch_ms[r] += TimeUs([&] { run_batch(nullptr); }) / 1e3;
        } else {
          sequential_ms[r] += TimeUs(run_sequential) / 1e3;
        }
      }
    }
  }
  for (int r = 0; r < kBatchRepeats; ++r) {
    out->batch_ms.push_back(batch_ms[r]);
    out->sequential_ms.push_back(sequential_ms[r]);
  }
}

}  // namespace

int RunTraced(const Options& options) {
  auto prepared = PrepareInputs(options, options.work_dir);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const Inputs& inputs = **prepared;
  const Stream& stream = inputs.stream;
  const bool batch = stream.items_per_request > 1;
  const bool router = UsesRouter(options.workload);

  // Every layer is up in every traced run: the combined xfragd (server
  // layer, router comparator), the 4-shard cluster (router layer), and a
  // mirror of its shards for the direct per-shard legs — sending those to
  // the router's own shards would warm their result caches for the router.
  Deployment single(options, inputs, Deployment::Shape::kSingle, "combined");
  Deployment cluster(options, inputs, Deployment::Shape::kCluster, "cluster");
  Deployment mirror(options, inputs, Deployment::Shape::kCluster, "mirror");
  for (Deployment* deployment : {&single, &cluster, &mirror}) {
    auto started = deployment->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", started.ToString().c_str());
      return 1;
    }
  }
  Deployment& served = router ? cluster : single;
  const uint16_t front = served.front_port();
  const std::vector<uint16_t> server_ports = served.xfragd_ports();
  const std::vector<uint16_t> shard_ports = mirror.xfragd_ports();
  const uint16_t router_port = cluster.front_port();
  const uint16_t combined_port = single.front_port();

  CounterDeltas counters;
  std::mutex counters_mu;
  auto observe = [&] {
    std::lock_guard<std::mutex> lock(counters_mu);
    for (uint16_t port : server_ports) {
      counters.Observe(xfrag::StrFormat("xfragd:%u", port), FetchMetrics(port),
                       kServerCounters);
    }
    counters.Observe("router", FetchMetrics(router_port), kRouterCounters);
  };
  // Reloads replace the daemon's service and reset its counters, so they
  // are read right before each one.
  const ReloadHook reload = [&](Client& client) {
    observe();
    return PostReload(client);
  };

  // The same warm-up pass on every daemon the single-client pass compares
  // (the front, the combined daemon, the mirror shards), so none of them
  // answers from colder caches than the others.
  const size_t warmup = WarmupRequests(options.workload);
  std::vector<uint16_t> warm_ports = {front};
  if (router) warm_ports.push_back(combined_port);
  for (uint16_t port : mirror.xfragd_ports()) warm_ports.push_back(port);
  for (uint16_t port : warm_ports) {
    (void)RunClosedLoop(port, stream, 0, 3600.0, warmup, nullptr, reload);
  }
  observe();
  // Untraced, traced, traced, untraced: drift over the run (the router
  // workloads still warm up) weighs on both kinds alike. A traced phase
  // differs only by the /metrics reads around it, so the qps gap is the
  // noise floor a later in-daemon tracer is measured against.
  const double phase_s = options.seconds * kPhaseShare / 2;
  const size_t unlimited = std::numeric_limits<size_t>::max();
  struct Side {
    std::vector<double> window_qps;
    size_t requests = 0, items = 0, ok_items = 0;
  } untraced, traced;
  size_t position = warmup;
  for (bool is_traced : {false, true, true, false}) {
    Side& side = is_traced ? traced : untraced;
    if (is_traced) observe();
    PhaseResult phase = RunClosedLoop(front, stream, position, phase_s,
                                      unlimited, nullptr, reload);
    if (is_traced) observe();
    position = phase.end_position;
    side.window_qps.insert(side.window_qps.end(), phase.window_qps.begin(),
                           phase.window_qps.end());
    side.requests += phase.requests;
    side.items += phase.items;
    side.ok_items += phase.ok_items;
  }

  // ---- Single-client pass: each body through every layer. --------------
  auto loaded =
      xfrag::storage::LoadCollectionFromSnapshot(inputs.combined_snapshot);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const xfrag::collection::Collection& collection = loaded->collection;
  xfrag::server::QueryService service(collection, XfragdServiceOptions());
  std::vector<std::unique_ptr<query::FixedPointCache>> fp_caches;
  for (size_t d = 0; d < collection.size(); ++d) {
    fp_caches.push_back(std::make_unique<query::FixedPointCache>(
        XfragdServiceOptions().fixed_point_cache));
  }
  Client to_combined(combined_port), to_router(router_port);
  std::vector<std::unique_ptr<Client>> to_shards;
  for (uint16_t port : shard_ports) {
    to_shards.push_back(std::make_unique<Client>(port));
  }
  const size_t docs_per_shard = kDocuments / shard_ports.size();
  // The in-process service gets the daemons' warm-up pass too.
  for (size_t position = 0; position < warmup; ++position) {
    (void)(batch ? service.HandleQueryBatch(stream.Body(position))
                 : service.HandleQuery(stream.Body(position)));
  }

  std::vector<double> rtt_combined, rtt_router, shard_max, shard_skew,
      router_overhead, merge_us, parse_us, lower_us, handle_ms, plan_us,
      eval_ms, render_us;
  double eval_on_miss_ms = 0.0;
  xfrag::algebra::OpMetrics work;
  double answers_from_misses = 0.0;
  size_t pass_items = 0, pass_failed_items = 0, mismatches = 0;
  std::string first_mismatch;
  std::vector<std::vector<Decoded>> batches;
  std::vector<Decoded> pending;
  const size_t max_batches = batch ? 4 : 2;

  xfrag::Timer pass_timer;
  double next_reload_ms = stream.reload_period_s * 1e3 / 2;
  const size_t pass_requests = PassRequests(options.workload);
  size_t passed = 0;
  for (; passed < pass_requests &&
         pass_timer.ElapsedMillis() < options.seconds * kPassCapShare * 1e3;
       ++passed, ++position) {
    if (stream.reload_period_s > 0 &&
        pass_timer.ElapsedMillis() >= next_reload_ms) {
      next_reload_ms += stream.reload_period_s * 1e3;
      observe();
      (void)PostReload(to_combined);
      service.InvalidateCaches();
    }
    const std::string& body = stream.Body(position);
    Reply combined_reply, router_reply;
    rtt_combined.push_back(TimeUs([&] {
      combined_reply = to_combined.Post(stream.target, body);
    }) / 1e3);
    rtt_router.push_back(TimeUs([&] {
      router_reply = to_router.Post(stream.target, body);
    }) / 1e3);
    std::vector<Reply> shard_replies(to_shards.size());
    std::vector<double> shard_ms;
    for (size_t k = 0; k < to_shards.size(); ++k) {
      shard_ms.push_back(TimeUs([&] {
        shard_replies[k] = to_shards[k]->Post(stream.target, body);
      }) / 1e3);
    }
    const double slowest = *std::max_element(shard_ms.begin(), shard_ms.end());
    shard_max.push_back(slowest);
    shard_skew.push_back(Ratio(slowest, Median(shard_ms)));
    router_overhead.push_back(rtt_router.back() - slowest);

    xfrag::StatusOr<Value> parsed = xfrag::Status::Internal("unset");
    parse_us.push_back(TimeUs([&] { parsed = xfrag::json::Parse(body); }));
    std::vector<Decoded> decoded;
    if (parsed.ok()) {
      for (const Value& item : BodyItems(*parsed)) {
        decoded.push_back(Decode(item, &lower_us));
      }
    }

    // Router merge over the shards' own bodies, item by item.
    std::vector<std::vector<Value>> shard_items;
    for (const Reply& reply : shard_replies) {
      shard_items.push_back(ReplyItems(reply, batch));
    }
    double merge = 0.0;
    for (size_t j = 0; j < decoded.size(); ++j) {
      std::vector<xfrag::router::ShardBody> bodies;
      for (size_t k = 0; k < shard_items.size(); ++k) {
        if (j < shard_items[k].size()) {
          bodies.push_back({k, k * docs_per_shard, shard_items[k][j]});
        }
      }
      xfrag::router::MergePlan plan;
      plan.top_k = decoded[j].top_k;
      plan.rank = decoded[j].top_k >= 0;
      plan.max_answers = decoded[j].max_answers;
      merge += TimeUs([&] {
        (void)xfrag::router::MergeQueryBodies(std::move(bodies), plan,
                                              kDocuments, {});
      });
    }
    merge_us.push_back(merge);

    xfrag::server::QueryOutcome outcome;
    handle_ms.push_back(TimeUs([&] {
      outcome = batch ? service.HandleQueryBatch(body)
                      : service.HandleQuery(body);
    }) / 1e3);
    work.Merge(outcome.metrics);
    std::vector<Value> in_process_items;
    if (batch) {
      if (const Value* results = outcome.body.Find("results")) {
        for (const Value& result : results->items()) {
          const Value* item_body = result.Find("body");
          in_process_items.push_back(item_body ? *item_body : Value::Object());
        }
      }
    } else {
      in_process_items.push_back(outcome.body);
    }

    double request_eval = 0.0, request_render = 0.0;
    for (size_t j = 0; j < decoded.size(); ++j) {
      if (!decoded[j].ok) continue;
      EngineTimings t = RunEngine(collection, decoded[j], fp_caches);
      if (t.plans > 0) {
        plan_us.push_back(t.plan_us / static_cast<double>(t.plans));
      }
      request_eval += t.eval_ms;
      request_render += t.render_us;
      const bool miss = j < in_process_items.size() &&
                        !CacheHit(in_process_items[j]);
      if (miss) {
        eval_on_miss_ms += t.eval_ms;
        if (const Value* count = in_process_items[j].Find("answer_count")) {
          answers_from_misses += count->AsDouble();
        }
      }
      if (decoded[j].plan == nullptr) {
        if (batch) {
          pending.push_back(decoded[j]);
        } else if (batches.size() < max_batches) {
          pending.push_back(decoded[j]);
          if (pending.size() == kBatchItems) {
            batches.push_back(std::move(pending));
            pending.clear();
          }
        }
      }
    }
    if (batch) {
      if (batches.size() < max_batches) batches.push_back(std::move(pending));
      pending.clear();
    }
    eval_ms.push_back(request_eval);
    render_us.push_back(request_render);

    // Exactness: combined daemon == in-process service, router == combined.
    pass_items += stream.items_per_request;
    const std::string expected = NormalizedBody(outcome.body.Dump());
    const bool ok = ReplyOk(combined_reply, stream.items_per_request) &&
                    ReplyOk(router_reply, stream.items_per_request);
    const bool exact = NormalizedBody(combined_reply.body) == expected &&
                       NormalizedBody(router_reply.body) == expected;
    if (!ok) pass_failed_items += stream.items_per_request;
    if (!exact) {
      ++mismatches;
      if (first_mismatch.empty()) first_mismatch = body;
    }
  }
  observe();
  if (batches.empty() && !pending.empty()) {
    batches.push_back(std::move(pending));
  }

  // ---- Engine-level batch against sequential evaluation. ----------------
  BatchClassTimings full, topk;
  std::vector<double> batch_groups;
  for (const std::vector<Decoded>& items : batches) {
    std::vector<const query::Query*> queries;
    std::vector<const Decoded*> full_items, topk_items;
    for (const Decoded& item : items) {
      queries.push_back(&item.query);
      (item.top_k >= 0 ? topk_items : full_items).push_back(&item);
    }
    if (queries.empty()) continue;
    batch_groups.push_back(
        static_cast<double>(query::GroupQueriesByTerms(queries).size()));
    CompareBatch(collection, full_items, &full);
    CompareBatch(collection, topk_items, &topk);
  }

  // ---- Storage. -----------------------------------------------------------
  const double resident_mb =
      static_cast<double>(loaded->reader->ResidentBytesNow()) / kMiB;
  std::vector<double> open_ms, reload_ms;
  for (int i = 0; i < kRepeats; ++i) {
    open_ms.push_back(TimeUs([&] {
      (void)xfrag::storage::LoadCollectionFromSnapshot(
          inputs.combined_snapshot);
    }) / 1e3);
  }
  struct stat snapshot_stat {};
  stat(inputs.combined_snapshot.c_str(), &snapshot_stat);

  // Gauges at the end of the run.
  double result_cache_bytes = 0.0, fp_cache_bytes = 0.0;
  for (uint16_t port : server_ports) {
    const Value metrics = FetchMetrics(port);
    result_cache_bytes += NumberAt(metrics, "result_cache.bytes");
    fp_cache_bytes += NumberAt(metrics, "fixed_point_cache.bytes");
  }
  const Value router_metrics = FetchMetrics(router_port);
  for (int i = 0; i < kRepeats; ++i) {
    reload_ms.push_back(TimeUs([&] { (void)PostReload(to_combined); }) / 1e3);
  }
  single.Stop();
  cluster.Stop();
  mirror.Stop();

  // ---- Report. ------------------------------------------------------------
  const double untraced_qps = Median(untraced.window_qps);
  const double traced_qps = Median(traced.window_qps);
  std::sort(rtt_combined.begin(), rtt_combined.end());
  const double rtt_p50 = Median(rtt_combined);
  const double handle_p50 = Median(handle_ms);
  Value metrics = Value::Object();
  auto put = [&](const char* name, double value, const char* unit) {
    Value metric = Value::Object();
    metric.Set("value", value);
    metric.Set("unit", unit);
    metrics.Set(name, std::move(metric));
  };
  put("server.rtt_p50_ms", rtt_p50, "ms");
  put("server.handle_p50_ms", handle_p50, "ms");
  put("server.http_share", 1.0 - Ratio(handle_p50, rtt_p50), "ratio");
  put("server.json_parse_us", Median(parse_us), "us");
  put("server.render_us", Median(render_us), "us");
  put("server.rejected_503", counters.Total("requests.by_status.503"),
      "count");
  put("server.result_cache_hit_ratio",
      Ratio(counters.Total("result_cache.hits"),
            counters.Total("result_cache.hits") +
                counters.Total("result_cache.misses")),
      "ratio");
  put("server.result_cache_evictions",
      counters.Total("result_cache.evictions"), "count");
  put("server.result_cache_mb", result_cache_bytes / kMiB, "MiB");
  put("server.fp_cache_hit_ratio",
      Ratio(counters.Total("fixed_point_cache.hits"),
            counters.Total("fixed_point_cache.hits") +
                counters.Total("fixed_point_cache.misses")),
      "ratio");
  put("server.fp_cache_evictions",
      counters.Total("fixed_point_cache.evictions"), "count");
  put("server.fp_cache_mb", fp_cache_bytes / kMiB, "MiB");
  put("lang.parse_lower_us", Median(lower_us), "us");
  put("query.plan_us", Median(plan_us), "us");
  put("query.eval_ms", Median(eval_ms), "ms");
  put("query.eval_share", Ratio(eval_on_miss_ms, Sum(handle_ms)), "ratio");
  put("query.batch_eval_ms.full", Median(full.batch_ms), "ms");
  put("query.batch_eval_ms.topk", Median(topk.batch_ms), "ms");
  put("query.batch_sequential_ms.full", Median(full.sequential_ms), "ms");
  put("query.batch_sequential_ms.topk", Median(topk.sequential_ms), "ms");
  put("query.batch_groups", Median(batch_groups), "count");
  put("query.batch_subplans_shared_ratio",
      Ratio(full.shared + topk.shared, full.scans + topk.scans), "ratio");
  put("algebra.fragment_joins", static_cast<double>(work.fragment_joins),
      "count");
  put("algebra.pairs_considered", static_cast<double>(work.pairs_considered),
      "count");
  put("algebra.summary_reject_ratio",
      Ratio(static_cast<double>(work.pairs_rejected_summary),
            static_cast<double>(work.pairs_considered)),
      "ratio");
  put("algebra.score_reject_ratio",
      Ratio(static_cast<double>(work.pairs_rejected_score),
            static_cast<double>(work.pairs_considered)),
      "ratio");
  put("algebra.fixed_point_iterations",
      static_cast<double>(work.fixed_point_iterations), "count");
  put("algebra.fragments_produced",
      static_cast<double>(work.fragments_produced), "count");
  put("algebra.answers_per_fragment",
      Ratio(answers_from_misses, static_cast<double>(work.fragments_produced)),
      "ratio");
  put("algebra.class_pairs_considered",
      static_cast<double>(work.class_pairs_considered), "count");
  put("algebra.answers_multiplied_out",
      static_cast<double>(work.answers_multiplied_out), "count");
  put("router.rtt_p50_ms", Median(rtt_router), "ms");
  put("router.shard_rtt_max_p50_ms", Median(shard_max), "ms");
  put("router.overhead_p50_ms", Median(router_overhead), "ms");
  put("router.shard_skew", Median(shard_skew), "ratio");
  put("router.merge_us", Median(merge_us), "us");
  put("router.combined_rtt_p50_ms", rtt_p50, "ms");
  put("router.hedges_launched", counters.Total("router.hedges.launched"),
      "count");
  put("router.hedges_won", counters.Total("router.hedges.won"), "count");
  put("router.bounds_pushed",
      counters.Total("router.distributed_topk.bounds_pushed"), "count");
  put("router.threshold_updates_sent",
      counters.Total("router.distributed_topk.threshold_updates_sent"),
      "count");
  put("router.threshold_apply_ratio",
      Ratio(counters.Total("router.distributed_topk.threshold_updates_applied"),
            counters.Total("router.distributed_topk.threshold_updates_sent")),
      "ratio");
  put("router.fallback_rescatter",
      counters.Total("router.distributed_topk.fallback_rescatter"), "count");
  put("router.probe_p50_us",
      NumberAt(router_metrics, "router.distributed_topk.probe_latency_us.p50"),
      "us");
  put("router.refine_p50_us",
      NumberAt(router_metrics, "router.distributed_topk.refine_latency_us.p50"),
      "us");
  put("storage.snapshot_open_ms", Median(open_ms), "ms");
  put("storage.reload_ms", Median(reload_ms), "ms");
  put("storage.resident_mb", resident_mb, "MiB");
  put("storage.snapshot_mb", static_cast<double>(snapshot_stat.st_size) / kMiB,
      "MiB");
  put("trace.overhead_share", 1.0 - Ratio(traced_qps, untraced_qps), "ratio");

  Value counts = Value::Object();
  counts.Set("pass_requests", static_cast<uint64_t>(passed));
  counts.Set("rtt_samples", static_cast<uint64_t>(rtt_combined.size()));
  counts.Set("lang_samples", static_cast<uint64_t>(lower_us.size()));
  counts.Set("plan_samples", static_cast<uint64_t>(plan_us.size()));
  counts.Set("batches_compared", static_cast<uint64_t>(batch_groups.size()));
  // One sample per timed round of each batch.
  counts.Set("full_batch_samples", static_cast<uint64_t>(full.batch_ms.size()));
  counts.Set("topk_batch_samples", static_cast<uint64_t>(topk.batch_ms.size()));
  counts.Set("open_samples", static_cast<uint64_t>(open_ms.size()));
  counts.Set("reload_samples", static_cast<uint64_t>(reload_ms.size()));
  counts.Set("untraced_requests", static_cast<uint64_t>(untraced.requests));
  counts.Set("traced_requests", static_cast<uint64_t>(traced.requests));
  Value record = Value::Object();
  record.Set("workload", WorkloadName(options.workload));
  record.Set("seed", options.seed);
  record.Set("traced", true);
  record.Set("provenance", options.provenance);
  Value phases = Value::Object();
  phases.Set("seconds", options.seconds);
  phases.Set("untraced_s", 2 * phase_s);
  phases.Set("traced_s", 2 * phase_s);
  phases.Set("order", "untraced, traced, traced, untraced");
  phases.Set("pass_cap_s", options.seconds * kPassCapShare);
  phases.Set("clients", static_cast<int64_t>(kClients));
  record.Set("phase_lengths", std::move(phases));
  Value commands = single.CommandsJson();
  const Value cluster_commands = cluster.CommandsJson();
  for (const Value& command : cluster_commands.items()) {
    commands.Append(command);
  }
  record.Set("daemon_commands", std::move(commands));
  record.Set("counts", std::move(counts));
  record.Set("qps_untraced", untraced_qps);
  record.Set("qps_traced", traced_qps);
  Value batch_compare = Value::Object();
  batch_compare.Set("full", TimingsJson(full));
  batch_compare.Set("topk", TimingsJson(topk));
  record.Set("batch_compare", std::move(batch_compare));
  record.Set("mismatches", static_cast<uint64_t>(mismatches));
  std::printf("{\"record\":%s}\n", record.Dump().c_str());
  if (!first_mismatch.empty()) {
    std::fprintf(stderr, "perfbench: EXACTNESS MISMATCH on %s\n",
                 first_mismatch.c_str());
  }

  const uint64_t attempted = untraced.items + traced.items + pass_items;
  const uint64_t failed = (untraced.items - untraced.ok_items) +
                          (traced.items - traced.ok_items) + pass_failed_items +
                          mismatches * stream.items_per_request;
  Value result = Value::Object();
  result.Set("correct", mismatches == 0);
  result.Set("attempted", attempted);
  result.Set("failed", std::min(failed, attempted));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return mismatches == 0 ? 0 : 2;
}


}  // namespace perfbench
