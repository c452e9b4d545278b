#include "server/result_cache.h"

#include <functional>
#include <utility>

namespace xfrag::server {

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  shard_budget_ = options_.max_bytes / options_.shards;
  // Budgets so small they round to zero per shard behave as disabled.
  if (shard_budget_ == 0) options_.max_bytes = 0;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const json::Value> ResultCache::Find(const std::string& key) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->body;
}

void ResultCache::Insert(const std::string& key, json::Value body) {
  if (!enabled()) return;
  // Size the entry by what it holds: the key, the body's tree and its heap,
  // plus the list/index/shared_ptr bookkeeping.
  size_t bytes = key.size() + sizeof(json::Value) + body.HeapBytes() + 160;
  if (bytes > shard_budget_) return;
  auto shared = std::make_shared<const json::Value>(std::move(body));

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{key, std::move(shared), bytes});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  ++shard.inserts;
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.entries += shard->index.size();
    stats.bytes += shard->bytes;
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.inserts += shard->inserts;
  }
  return stats;
}

json::Value ResultCache::StatsJson() const {
  ResultCacheStats stats = Stats();
  json::Value out = json::Value::Object();
  out.Set("enabled", enabled());
  out.Set("entries", stats.entries);
  out.Set("bytes", stats.bytes);
  out.Set("hits", stats.hits);
  out.Set("misses", stats.misses);
  out.Set("evictions", stats.evictions);
  out.Set("inserts", stats.inserts);
  return out;
}

void ResultCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
    shard->inserts = 0;
  }
}

}  // namespace xfrag::server
