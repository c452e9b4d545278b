// A serving-side cache of whole /query response bodies. Documents are
// immutable while a server runs, so two requests that normalize to the same
// evaluation (same term multiset, filter, strategy, answer mode, top_k, and
// rendering options) produce the same answers — the second one can be served
// without invoking the engine at all.
//
// Sharded LRU with a global byte budget split evenly across shards: each
// shard is an intrusive recency list plus a key map under its own mutex, so
// concurrent workers serving disjoint queries rarely contend. Values are
// held by shared_ptr and copied out on hit — an entry may be evicted while a
// hit is still rendering, and nothing dangles. The budget counts the heap
// bytes of those trees (json::Value::HeapBytes), which are several times
// their serialized size — sizing by Dump() would both serialize every miss
// twice and let the cache hold far more memory than its budget says.
//
// The cache stores only successful (HTTP 200) bodies; errors, deadline
// expirations, and debug-sleep requests are never cached (see service.cc).

#ifndef XFRAG_SERVER_RESULT_CACHE_H_
#define XFRAG_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"

namespace xfrag::server {

/// Result-cache sizing knobs.
struct ResultCacheOptions {
  /// Total byte budget across all shards, counted as the memory the entries
  /// hold: key, json::Value tree and its heap bytes (Value::HeapBytes), and
  /// per-entry bookkeeping. 0 disables the cache entirely
  /// (every Find misses without counting, every Insert is a no-op).
  size_t max_bytes = 0;
  /// Number of lock-striped shards; clamped to at least 1. Requests hash to
  /// a shard by key, so the budget is enforced per shard (max_bytes/shards).
  size_t shards = 8;
};

/// A point-in-time aggregate of every shard's counters.
struct ResultCacheStats {
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t inserts = 0;
};

/// \brief Sharded, byte-budgeted LRU cache of response bodies (held as
/// json::Value trees, serialized per hit).
///
/// Thread-safe: all methods may be called concurrently from any number of
/// worker threads.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  bool enabled() const { return options_.max_bytes > 0; }

  /// Looks up `key`, refreshing its recency. Returns null on miss (or when
  /// the cache is disabled — that case counts neither hit nor miss). The
  /// pointee is immutable and survives concurrent eviction for as long as
  /// the caller holds the pointer.
  std::shared_ptr<const json::Value> Find(const std::string& key);

  /// \brief Stores `body` under `key`, replacing any existing entry and
  /// evicting least-recently-used entries until the shard fits its budget.
  /// A body larger than the whole shard budget is not cached (it would only
  /// flush everything else for a single-use entry).
  void Insert(const std::string& key, json::Value body);

  ResultCacheStats Stats() const;

  /// Stats() rendered for GET /metrics.
  json::Value StatsJson() const;

  /// Drops every entry (counters too) — the invalidation hook for a future
  /// document-reload path, and for tests.
  void Clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const json::Value> body;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used; eviction pops from the back.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
  };

  Shard& ShardFor(const std::string& key);

  ResultCacheOptions options_;
  size_t shard_budget_ = 0;
  /// unique_ptr: Shard holds a mutex and must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace xfrag::server

#endif  // XFRAG_SERVER_RESULT_CACHE_H_
