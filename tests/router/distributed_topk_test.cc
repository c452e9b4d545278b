// The distributed top-k exactness oracle. The router answers top-k in one
// plain scatter: shards hold disjoint documents and an answer never spans
// documents, so the k-way merge of each shard's own top-k is exactly the
// global top-k. Answers must be byte-identical to a single combined xfragd
// over randomized queries, shard counts {1, 2, 4}, k in {1, 3, 10, 50}, and
// a deliberately ties-heavy corpus (replicated document shapes, so score
// ties straddle shard boundaries and the k-th score is a multi-way tie).
//
// Work metrics legitimately differ (each node's shard-local floors prune a
// different document sequence), so comparisons here normalize "metrics"
// away; the strict metric-inclusive contract lives in
// router_integration_test.cc with cross-document floors disabled.
//
// Fault injection rides along: a shard killed before or during the query
// must yield either the complete byte-identical answer or an exact partial
// (the true top-k over the surviving shards' documents) — never a wrong
// result. The protocol contract of revision 4 is pinned here too: the
// retired bound-exchange fields are unknown request fields on both tiers
// and POST /threshold no longer exists. Everything is loopback and
// hermetic, so the whole file runs under TSan (scripts/check.sh router
// stage).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "router/router.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"

namespace xfrag::router {
namespace {

constexpr size_t kTotalDocs = 16;

const char* Word(size_t n) {
  static const char* vocab[] = {"algebra", "query",   "fragment",
                                "ranking", "xml",     "join"};
  return vocab[n % (sizeof(vocab) / sizeof(vocab[0]))];
}

/// Ties-heavy document `i`: only four distinct bodies replicated across the
/// corpus, so identical fragments (and identical scores) appear on every
/// shard and the global k-th score is usually a multi-way tie.
std::string MakeTiesDoc(size_t i) {
  size_t shape = i % 4;
  std::string xml = StrFormat("<paper><title>%s %s</title>", Word(shape),
                              Word(shape + 2));
  size_t sections = 2 + shape % 2;
  for (size_t s = 0; s < sections; ++s) {
    xml += StrFormat("<section>%s", Word(shape + s));
    for (size_t p = 0; p < 2 + (shape + s) % 2; ++p) {
      xml += StrFormat("<par>%s %s</par>", Word(shape * 2 + s + p),
                       Word(shape + p));
    }
    xml += "</section>";
  }
  xml += "</paper>";
  return xml;
}

class DistributedTopKTestBase : public ::testing::Test {
 protected:
  /// Builds the 16-document corpus partitioned contiguously over
  /// `shard_count` shards, plus the combined single-node collection.
  void BuildCorpus(size_t shard_count) {
    ASSERT_EQ(kTotalDocs % shard_count, 0u);
    docs_per_shard_ = kTotalDocs / shard_count;
    combined_ = std::make_unique<collection::Collection>();
    shard_collections_.clear();
    for (size_t s = 0; s < shard_count; ++s) {
      shard_collections_.push_back(
          std::make_unique<collection::Collection>());
    }
    for (size_t i = 0; i < kTotalDocs; ++i) {
      std::string name = StrFormat("d%02zu.xml", i);
      std::string xml = MakeTiesDoc(i);
      ASSERT_TRUE(combined_->AddXml(name, xml).ok());
      ASSERT_TRUE(
          shard_collections_[i / docs_per_shard_]->AddXml(name, xml).ok());
    }
  }

  std::unique_ptr<server::Server> StartNode(
      const collection::Collection& collection,
      server::ServerOptions options = {}) {
    auto node = std::make_unique<server::Server>(collection, options);
    auto started = node->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return node;
  }

  std::vector<std::unique_ptr<server::Server>> StartShards(
      server::ServerOptions options = {}) {
    std::vector<std::unique_ptr<server::Server>> shards;
    for (auto& collection : shard_collections_) {
      shards.push_back(StartNode(*collection, options));
    }
    return shards;
  }

  ShardMap MapFor(
      const std::vector<std::unique_ptr<server::Server>>& shards) const {
    ShardMap map;
    for (size_t s = 0; s < shards.size(); ++s) {
      ShardInfo info;
      info.host = "127.0.0.1";
      info.port = shards[s]->port();
      info.doc_begin = s * docs_per_shard_;
      info.doc_count = docs_per_shard_;
      map.shards.push_back(std::move(info));
    }
    map.total_documents = kTotalDocs;
    return map;
  }

  static std::unique_ptr<Router> StartRouter(ShardMap map,
                                             RouterOptions options) {
    auto router = std::make_unique<Router>(std::move(map), options);
    auto started = router->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return router;
  }

  /// Hedging and health probes off: this suite isolates the top-k merge.
  static RouterOptions QuietRouterOptions() {
    RouterOptions options;
    options.enable_hedging = false;
    options.health_check_interval_ms = 0;
    return options;
  }

  static StatusOr<server::HttpResponse> Post(uint16_t port,
                                             const std::string& path,
                                             const std::string& body,
                                             int timeout_ms = 30000) {
    std::string request = StrFormat(
        "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        path.c_str(), body.size());
    request += body;
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request, timeout_ms);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  static StatusOr<server::HttpResponse> Get(uint16_t port,
                                            const std::string& path) {
    std::string request = StrFormat(
        "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        path.c_str());
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  /// The answer-exactness normalization: zero the timing and drop the work
  /// "metrics" (shard-local floors change work, never answers). Everything
  /// else — answers, scores, order, counts, truncation — must agree byte for
  /// byte.
  static std::string NormalizedTopK(const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return body;
    parsed->Set("elapsed_ms", 0);
    parsed->Remove("metrics");
    return parsed->Dump();
  }

  /// The "answers" array alone, for comparisons where the top-level corpus
  /// fields legitimately differ (partial results vs a survivors-only node).
  /// "document_index" is dropped too: the survivors-only oracle renumbers
  /// its documents, while names, fragments, and scores must agree exactly.
  static std::string AnswersOnly(const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return body;
    const json::Value* answers = parsed->Find("answers");
    EXPECT_NE(answers, nullptr) << body;
    if (answers == nullptr) return body;
    json::Value normalized = json::Value::Array();
    for (const json::Value& answer : answers->items()) {
      json::Value copy = json::Value::Object();
      for (const auto& [key, value] : answer.members()) {
        if (key != "document_index") copy.Set(key, value);
      }
      normalized.Append(std::move(copy));
    }
    return normalized.Dump();
  }

  static int64_t FragmentJoins(const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return -1;
    const json::Value* metrics = parsed->Find("metrics");
    EXPECT_NE(metrics, nullptr) << body;
    if (metrics == nullptr) return -1;
    return metrics->Find("fragment_joins")->AsInt();
  }

  /// One randomized ranked query with the given k. No "explain" here (the
  /// strict suite covers it); term/filter/strategy/max_answers all vary.
  static std::string RandomTopKBody(Rng* rng, int64_t k) {
    json::Value body = json::Value::Object();
    json::Value terms = json::Value::Array();
    size_t term_count = 1 + rng->Uniform(2);
    for (size_t t = 0; t < term_count; ++t) {
      terms.Append(std::string(Word(rng->Uniform(6))));
    }
    body.Set("terms", std::move(terms));
    if (rng->Chance(0.3)) {
      static const char* filters[] = {"size<=3", "height<=2", "size<=5"};
      body.Set("filter", std::string(filters[rng->Uniform(3)]));
    }
    if (rng->Chance(0.4)) {
      static const char* strategies[] = {"pushdown", "reduced", "naive"};
      body.Set("strategy", std::string(strategies[rng->Uniform(3)]));
    }
    if (rng->Chance(0.5)) body.Set("rank", true);
    body.Set("top_k", k);
    if (rng->Chance(0.2)) {
      body.Set("max_answers", static_cast<int64_t>(rng->Uniform(5)));
    }
    return body.Dump();
  }

  static bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::unique_ptr<collection::Collection> combined_;
  std::vector<std::unique_ptr<collection::Collection>> shard_collections_;
  size_t docs_per_shard_ = 0;
};

class DistributedTopKTest : public DistributedTopKTestBase,
                            public ::testing::WithParamInterface<size_t> {
 protected:
  void SetUp() override { BuildCorpus(GetParam()); }
};

// The core distributed-equivalence contract: for every shard count and every
// k, the router's top-k is byte-identical to the combined node after
// dropping the work metrics.
TEST_P(DistributedTopKTest, RandomizedTopKByteIdenticalToCombinedNode) {
  auto combined_node = StartNode(*combined_);
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());

  Rng rng(0xd15e ^ GetParam());
  int compared = 0;
  for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{10}, int64_t{50}}) {
    for (int q = 0; q < 18; ++q) {
      std::string body = RandomTopKBody(&rng, k);
      auto from_combined = Post(combined_node->port(), "/query", body);
      auto from_router = Post(router->port(), "/query", body);
      ASSERT_TRUE(from_combined.ok()) << from_combined.status().ToString();
      ASSERT_TRUE(from_router.ok()) << from_router.status().ToString();
      ASSERT_EQ(from_router->status, 200) << body << "\n" << from_router->body;
      ASSERT_EQ(from_combined->status, 200) << body;
      EXPECT_EQ(NormalizedTopK(from_router->body),
                NormalizedTopK(from_combined->body))
          << "k=" << k << ": " << body;
      ++compared;
    }
  }
  EXPECT_GE(compared, 72);
  EXPECT_EQ(router->partials_served(), 0u);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  combined_node->Shutdown();
}

// Ties straddling shard boundaries: with four replicated document shapes,
// the k-th score is a multi-way tie that every shard's local top-k cuts
// through, and the canonical (score desc, document order asc) merge must
// still reproduce the combined node exactly.
TEST_P(DistributedTopKTest, TiesAtTheKthScoreSurviveTheMerge) {
  auto combined_node = StartNode(*combined_);
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());

  for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{10}, int64_t{50}}) {
    for (const char* term : {"algebra", "query", "join"}) {
      std::string body = StrFormat(
          R"({"terms":["%s"],"top_k":%lld})", term,
          static_cast<long long>(k));
      auto from_combined = Post(combined_node->port(), "/query", body);
      auto from_router = Post(router->port(), "/query", body);
      ASSERT_TRUE(from_combined.ok() && from_router.ok());
      ASSERT_EQ(from_router->status, 200) << from_router->body;
      EXPECT_EQ(NormalizedTopK(from_router->body),
                NormalizedTopK(from_combined->body))
          << "k=" << k << " term=" << term;
    }
  }

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  combined_node->Shutdown();
}

// The pruning that stays is shard-local: each shard seeds its own top-k floor
// across its documents (ServiceOptions::enable_cross_document_floor). Through
// the router it must change work, never answers: shards with the floor on and
// shards with it off yield byte-identical merged top-k, and across the run
// the floor materializes fewer joins than the unpruned scatter.
TEST_P(DistributedTopKTest, ShardLocalFloorPrunesWithoutChangingAnswers) {
  auto floor_on_shards = StartShards();
  server::ServerOptions unpruned;
  unpruned.service.enable_cross_document_floor = false;
  auto floor_off_shards = StartShards(unpruned);
  auto router_on = StartRouter(MapFor(floor_on_shards), QuietRouterOptions());
  auto router_off =
      StartRouter(MapFor(floor_off_shards), QuietRouterOptions());

  Rng rng(0xf100 ^ GetParam());
  int compared = 0;
  int64_t joins_on = 0;
  int64_t joins_off = 0;
  for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{10}}) {
    for (int q = 0; q < 12; ++q) {
      std::string body = RandomTopKBody(&rng, k);
      // Warm both shard sets' fixed-point caches first, so the join counts
      // below reflect floor pruning rather than one-time closure costs.
      (void)Post(router_on->port(), "/query", body);
      (void)Post(router_off->port(), "/query", body);
      auto from_on = Post(router_on->port(), "/query", body);
      auto from_off = Post(router_off->port(), "/query", body);
      ASSERT_TRUE(from_on.ok()) << from_on.status().ToString();
      ASSERT_TRUE(from_off.ok()) << from_off.status().ToString();
      ASSERT_EQ(from_on->status, 200) << body << "\n" << from_on->body;
      ASSERT_EQ(from_off->status, 200) << body << "\n" << from_off->body;
      EXPECT_EQ(NormalizedTopK(from_on->body), NormalizedTopK(from_off->body))
          << "k=" << k << ": " << body;
      joins_on += FragmentJoins(from_on->body);
      joins_off += FragmentJoins(from_off->body);
      ++compared;
    }
  }
  EXPECT_GE(compared, 36);
  // Deterministic corpus and queries: the floor prunes at every shard count.
  EXPECT_LT(joins_on, joins_off);

  router_on->Shutdown();
  router_off->Shutdown();
  for (auto& shard : floor_on_shards) shard->Shutdown();
  for (auto& shard : floor_off_shards) shard->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Shards, DistributedTopKTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{4}));

/// Fault injection and protocol-contract tests at a fixed four-shard layout.
class DistributedTopKFaultTest : public DistributedTopKTestBase {
 protected:
  void SetUp() override { BuildCorpus(4); }

  /// A combined node over the documents of the surviving shards only — the
  /// oracle for "exact partial" answers.
  std::unique_ptr<collection::Collection> SurvivorsWithout(
      size_t dead_shard) const {
    auto survivors = std::make_unique<collection::Collection>();
    for (size_t i = 0; i < kTotalDocs; ++i) {
      if (i / docs_per_shard_ == dead_shard) continue;
      auto added = survivors->AddXml(StrFormat("d%02zu.xml", i),
                                     MakeTiesDoc(i));
      EXPECT_TRUE(added.ok());
    }
    return survivors;
  }
};

// A shard dead before the query: the scatter misses it, and the partial
// result must be the exact top-k over the surviving documents (no shard
// prunes against another shard's answers, so survivors are self-justified).
TEST_F(DistributedTopKFaultTest, DeadShardYieldsExactPartial) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());
  constexpr size_t kDead = 2;
  shards[kDead]->Shutdown();

  auto survivors = SurvivorsWithout(kDead);
  auto survivor_node = StartNode(*survivors);
  const std::string body = R"({"terms":["algebra","query"],"top_k":5})";

  auto degraded = Post(router->port(), "/query", body);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->status, 200) << degraded->body;
  auto parsed = json::Parse(degraded->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* partial = parsed->Find("partial");
  ASSERT_NE(partial, nullptr) << degraded->body;
  ASSERT_EQ(partial->Find("missing_shards")->size(), 1u);
  EXPECT_EQ((*partial->Find("missing_shards"))[0].AsInt(),
            static_cast<int64_t>(kDead));

  auto oracle = Post(survivor_node->port(), "/query", body);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->status, 200);
  EXPECT_EQ(AnswersOnly(degraded->body), AnswersOnly(oracle->body))
      << "partial answers are not the exact top-k over the survivors";

  // The same query under require_complete refuses the partial instead.
  auto refused = Post(
      router->port(), "/query",
      R"({"terms":["algebra","query"],"top_k":5,"require_complete":true})");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 504) << refused->body;

  router->Shutdown();
  for (size_t s = 0; s < shards.size(); ++s) {
    if (s != kDead) shards[s]->Shutdown();
  }
  survivor_node->Shutdown();
}

// A shard killed mid-query (while its leg of the scatter is evaluating): the
// result must be either the complete byte-identical answer or an exact
// partial over the survivors — never a wrong or mixed result.
TEST_F(DistributedTopKFaultTest, ShardKilledMidQueryIsNeverWrong) {
  server::ServerOptions slow;
  slow.service.enable_debug_sleep = true;
  auto shards = StartShards(slow);
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());
  constexpr size_t kVictim = 3;

  const std::string slow_body =
      R"({"terms":["algebra","query"],"top_k":5,"debug_sleep_ms":150})";
  const std::string plain_body = R"({"terms":["algebra","query"],"top_k":5})";

  StatusOr<server::HttpResponse> response = Status::Internal("unset");
  std::thread client([&] {
    response = Post(router->port(), "/query", slow_body);
  });
  // Let the victim's leg get under way, then yank the shard. Depending on
  // timing the kill lands during its evaluation or after it answered.
  WaitUntil([&] { return shards[kVictim]->InFlight() > 0; }, 2000);
  shards[kVictim]->Shutdown();
  client.join();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());

  if (parsed->Find("partial") == nullptr) {
    // The victim resolved before dying: the answer must be complete & exact.
    auto combined_node = StartNode(*combined_);
    auto oracle = Post(combined_node->port(), "/query", plain_body);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(NormalizedTopK(response->body), NormalizedTopK(oracle->body));
    combined_node->Shutdown();
  } else {
    const json::Value* missing = parsed->Find("partial")->Find("missing_shards");
    ASSERT_EQ(missing->size(), 1u);
    EXPECT_EQ((*missing)[0].AsInt(), static_cast<int64_t>(kVictim));
    auto survivors = SurvivorsWithout(kVictim);
    auto survivor_node = StartNode(*survivors);
    auto oracle = Post(survivor_node->port(), "/query", plain_body);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(AnswersOnly(response->body), AnswersOnly(oracle->body))
        << "mid-query kill produced a non-exact partial";
    survivor_node->Shutdown();
  }

  router->Shutdown();
  for (size_t s = 0; s < shards.size(); ++s) {
    if (s != kVictim) shards[s]->Shutdown();
  }
}

// Revision 4 retired the bound exchange. A bare xfragd rejects each of its
// fields (and the router's former "bound_exchange" switch) as an unknown
// request field, the router forwards that 400 unchanged (per item on
// /query_batch), POST /threshold is gone from both tiers, and /version
// reports the new revision.
TEST_F(DistributedTopKFaultTest, RetiredExchangeFieldsAreUnknownFields) {
  auto node = StartNode(*combined_);
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());

  for (const char* field : {"score_floor", "probe_documents", "skip_documents",
                            "query_id", "bound_exchange"}) {
    const std::string body = StrFormat(
        R"({"terms":["algebra"],"top_k":3,"%s":1})", field);
    auto bare = Post(node->port(), "/query", body);
    ASSERT_TRUE(bare.ok()) << body;
    EXPECT_EQ(bare->status, 400) << body << " -> " << bare->body;
    auto parsed = json::Parse(bare->body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->Find("error")->AsString(),
              StrFormat("unknown request field \"%s\"", field));

    auto routed = Post(router->port(), "/query", body);
    ASSERT_TRUE(routed.ok()) << body;
    EXPECT_EQ(routed->status, 400) << body;
    EXPECT_EQ(routed->body, bare->body) << body;

    auto batched = Post(router->port(), "/query_batch",
                        StrFormat(R"([%s,{"terms":["algebra"]}])",
                                  body.c_str()));
    ASSERT_TRUE(batched.ok()) << body;
    ASSERT_EQ(batched->status, 200) << batched->body;
    auto batch_body = json::Parse(batched->body);
    ASSERT_TRUE(batch_body.ok());
    const json::Value* results = batch_body->Find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), 2u);
    EXPECT_EQ((*results)[0].Find("status")->AsInt(), 400);
    EXPECT_EQ((*results)[0].Find("body")->Dump(), parsed->Dump()) << body;
    EXPECT_EQ((*results)[1].Find("status")->AsInt(), 200);
  }

  for (uint16_t port : {node->port(), router->port()}) {
    auto threshold = Post(port, "/threshold",
                          R"({"query_id":"q-1","score_floor":1.5})");
    ASSERT_TRUE(threshold.ok());
    EXPECT_EQ(threshold->status, 404) << threshold->body;
  }

  auto version = Get(router->port(), "/version");
  ASSERT_TRUE(version.ok());
  auto version_body = json::Parse(version->body);
  ASSERT_TRUE(version_body.ok());
  EXPECT_EQ(version_body->Find("router_protocol_revision")->AsInt(), 4);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  node->Shutdown();
}

}  // namespace
}  // namespace xfrag::router
