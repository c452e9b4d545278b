// The router's poll-driven scatter: every leg of a query runs on the HTTP
// worker that took it, over the shards' pooled keep-alive connections. These
// tests pin the properties that design has to keep: a stale pooled
// connection is re-dialed once and the answer stays complete; the router's
// thread count does not grow with the shard count; the pool the scatter
// shares with the blocking health checker keeps blocking sockets; and a
// hedge loser's connection is closed, not pooled.

#include <dirent.h>
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
#include "router/router.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"

namespace xfrag::router {
namespace {

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

class ScatterTest : public ::testing::Test {
 protected:
  /// `shards` collections of one small document each.
  void MakeCorpus(size_t shards) {
    collections_.clear();
    for (size_t s = 0; s < shards; ++s) {
      auto collection = std::make_unique<collection::Collection>();
      std::string xml = StrFormat(
          "<paper><title>algebra query %zu</title><section><par>algebra "
          "fragment</par><par>query retrieval %zu</par></section></paper>",
          s, s);
      ASSERT_TRUE(collection->AddXml(StrFormat("d%02zu.xml", s), xml).ok());
      collections_.push_back(std::move(collection));
    }
  }

  std::unique_ptr<server::Server> StartShard(size_t s,
                                             server::ServerOptions options) {
    auto node = std::make_unique<server::Server>(*collections_[s], options);
    auto started = node->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return node;
  }

  std::vector<std::unique_ptr<server::Server>> StartShards(
      server::ServerOptions options = {}) {
    std::vector<std::unique_ptr<server::Server>> shards;
    for (size_t s = 0; s < collections_.size(); ++s) {
      shards.push_back(StartShard(s, options));
    }
    return shards;
  }

  static ShardMap MapFor(
      const std::vector<std::unique_ptr<server::Server>>& shards) {
    ShardMap map;
    for (size_t s = 0; s < shards.size(); ++s) {
      ShardInfo info;
      info.host = "127.0.0.1";
      info.port = shards[s]->port();
      info.doc_begin = s;
      info.doc_count = 1;
      map.shards.push_back(std::move(info));
    }
    map.total_documents = shards.size();
    return map;
  }

  static RouterOptions QuietOptions() {
    RouterOptions options;
    options.enable_hedging = false;
    options.health_check_interval_ms = 0;
    return options;
  }

  static StatusOr<server::HttpResponse> Request(uint16_t port,
                                                const std::string& method,
                                                const std::string& target,
                                                const std::string& body) {
    std::string request = StrFormat(
        "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        method.c_str(), target.c_str(), body.size());
    request += body;
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  static StatusOr<server::HttpResponse> Query(uint16_t port,
                                              const std::string& body) {
    return Request(port, "POST", "/query", body);
  }

  /// The router's /metrics "router"."shards" array.
  static json::Value ShardMetrics(uint16_t port) {
    auto response = Request(port, "GET", "/metrics", "");
    EXPECT_TRUE(response.ok());
    if (!response.ok()) return json::Value();
    auto parsed = json::Parse(response->body);
    EXPECT_TRUE(parsed.ok());
    if (!parsed.ok()) return json::Value();
    return *parsed->Find("router")->Find("shards");
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

  std::vector<std::unique_ptr<collection::Collection>> collections_;
};

TEST_F(ScatterTest, ShardRestartedOnSamePortIsRedialedAndAnswerIsComplete) {
  MakeCorpus(2);
  auto shards = StartShards();
  auto router = std::make_unique<Router>(MapFor(shards), QuietOptions());
  ASSERT_TRUE(router->Start().ok());
  const std::string body = R"({"terms":["algebra"]})";

  auto before = Query(router->port(), body);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->status, 200) << before->body;
  ASSERT_EQ(ShardMetrics(router->port())[1].Find("pool")->Find("pooled")
                ->AsInt(),
            1);

  // The restart leaves the router's pooled connection to shard 1 dead.
  const uint16_t port1 = shards[1]->port();
  shards[1]->Shutdown();
  server::ServerOptions same_port;
  same_port.port = port1;
  shards[1] = StartShard(1, same_port);

  auto after = Query(router->port(), body);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->status, 200) << after->body;
  auto parsed = json::Parse(after->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("partial"), nullptr) << after->body;
  auto expected = json::Parse(before->body);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(parsed->Find("answers")->Dump(), expected->Find("answers")->Dump());
  const json::Value pool1 = *ShardMetrics(router->port())[1].Find("pool");
  EXPECT_GE(pool1.Find("stale_retries")->AsInt(), 1) << pool1.Dump();
  EXPECT_EQ(router->partials_served(), 0u);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(ScatterTest, RouterThreadCountDoesNotGrowWithShardCount) {
  auto router_threads = [&](size_t shard_count) -> size_t {
    MakeCorpus(shard_count);
    auto shards = StartShards();
    const size_t before = ThreadCount();
    RouterOptions options;  // the defaults, health checker included
    auto router = std::make_unique<Router>(MapFor(shards), options);
    EXPECT_TRUE(router->Start().ok());
    const size_t after = ThreadCount();
    auto response = Query(router->port(), R"({"terms":["algebra"]})");
    EXPECT_TRUE(response.ok() && response->status == 200);
    router->Shutdown();
    for (auto& shard : shards) shard->Shutdown();
    return after - before;
  };
  const size_t one = router_threads(1);
  const size_t eight = router_threads(8);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(one, eight);
}

TEST_F(ScatterTest, HealthCheckerStaysGreenOverScatteredQueries) {
  MakeCorpus(3);
  // Idle pooled connections must outlive the test: a stale retry here
  // would only mean the shard closed an idle socket.
  server::ServerOptions shard_options;
  shard_options.keep_alive_idle_timeout_ms = 60000;
  auto shards = StartShards(shard_options);
  RouterOptions options = QuietOptions();
  options.health_check_interval_ms = 2;
  auto router = std::make_unique<Router>(MapFor(shards), options);
  ASSERT_TRUE(router->Start().ok());

  for (int i = 0; i < 200; ++i) {
    auto response = Query(router->port(), i % 2 == 0
                                              ? R"({"terms":["algebra"]})"
                                              : R"({"terms":["query"],"top_k":2})");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
  }
  EXPECT_EQ(router->HealthyShards(), shards.size());
  // The health checker's blocking Call() reads from sockets the scatter
  // pooled. Were they left non-blocking, its recv would fail at once and
  // show up here as a mark-down or a stale retry.
  const json::Value metrics = ShardMetrics(router->port());
  ASSERT_EQ(metrics.size(), shards.size());
  for (const json::Value& shard : metrics.items()) {
    EXPECT_TRUE(shard.Find("healthy")->AsBool()) << shard.Dump();
    EXPECT_EQ(shard.Find("mark_downs")->AsInt(), 0) << shard.Dump();
    EXPECT_EQ(shard.Find("pool")->Find("stale_retries")->AsInt(), 0)
        << shard.Dump();
    EXPECT_EQ(shard.Find("failures")->AsInt(), 0) << shard.Dump();
  }

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(ScatterTest, HedgeLoserConnectionIsClosedNotPooled) {
  MakeCorpus(3);
  server::ServerOptions shard_options;
  shard_options.service.enable_debug_sleep = true;
  auto shards = StartShards(shard_options);
  RouterOptions options;
  options.health_check_interval_ms = 0;
  options.hedge_default_delay_ms = 10;  // hedge well before the sleep ends
  auto router = std::make_unique<Router>(MapFor(shards), options);
  ASSERT_TRUE(router->Start().ok());

  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    auto response = Query(router->port(),
                          R"({"terms":["algebra"],"debug_sleep_ms":150})");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    EXPECT_EQ(json::Parse(response->body)->Find("partial"), nullptr);
  }
  EXPECT_EQ(router->hedges_launched(), static_cast<uint64_t>(kQueries));

  // Give a loser that was (wrongly) left running time to finish and pool.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const json::Value metrics = ShardMetrics(router->port());
  int64_t pooled = 0;
  for (const json::Value& shard : metrics.items()) {
    const int64_t shard_pooled = shard.Find("pool")->Find("pooled")->AsInt();
    // Queries run one at a time, so each shard pools only its winner.
    EXPECT_LE(shard_pooled, 1) << shard.Dump();
    pooled += shard_pooled;
  }
  EXPECT_LE(pooled, static_cast<int64_t>(shards.size()) + 1);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

}  // namespace
}  // namespace xfrag::router
