// Cross-query memoization of keyword fixed points — an implementation-level
// optimization of the kind §5 anticipates ("other optimization issues at
// implementation level to complement our algebraic optimization"). The
// expensive part of most queries is the per-term closure F_i⁺, which depends
// only on (term, scan filter, fixed-point filter, variant) — not on the
// other query terms — so an engine serving many queries over one immutable
// document can reuse it.

#ifndef XFRAG_QUERY_FIXED_POINT_CACHE_H_
#define XFRAG_QUERY_FIXED_POINT_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "algebra/fragment_set.h"

namespace xfrag::query {

/// Capacity limits for a FixedPointCache. 0 means unlimited for that axis —
/// the default, matching the pre-bounded behaviour (library users with a
/// handful of queries never need eviction; xfragd configures both caps so
/// long-running traffic cannot grow the cache without bound).
struct FixedPointCacheLimits {
  /// Maximum number of cached closures (0 = unlimited).
  size_t max_entries = 0;
  /// Approximate byte budget for cached closures (0 = unlimited).
  size_t max_bytes = 0;
};

/// \brief A memo table for per-term fixed points.
///
/// Keys encode everything the closure depends on; the executor consults the
/// cache for FixedPoint-over-Scan plan fragments. Values are immutable
/// fragment sets held by shared_ptr (documents are immutable, so entries
/// never invalidate) — a Find result stays valid for as long as the caller
/// holds it, even if the entry is evicted concurrently.
///
/// Eviction is coarse LRU: each Find/Insert stamps the entry with a
/// monotonically increasing tick, and when a configured limit is exceeded
/// the entry with the smallest tick is dropped (a linear scan — entry counts
/// are small, and an O(n) pass per eviction keeps the structure trivial).
/// Insert is first-wins: a key's value never changes once published, so two
/// racing closures of the same term agree by construction.
///
/// Thread-safe: concurrent Find/Insert from any number of threads is
/// coherent (required once a shared thread pool evaluates many queries at
/// once).
class FixedPointCache {
 public:
  FixedPointCache() = default;
  explicit FixedPointCache(FixedPointCacheLimits limits) : limits_(limits) {}

  /// Looks up `key`; returns null on miss. The pointee is immutable and
  /// shared — it survives eviction for as long as the caller holds it.
  std::shared_ptr<const algebra::FragmentSet> Find(
      const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    it->second.last_used = ++tick_;
    return it->second.value;
  }

  /// \brief Stores `value` under `key` unless the key is already present
  /// (first publication wins). Returns true when this call published the
  /// entry. May evict least-recently-used entries to honour the limits —
  /// including, when a single closure exceeds the whole byte budget, the
  /// entry just inserted.
  bool Insert(const std::string& key, algebra::FragmentSet value) {
    return Insert(key, std::make_shared<const algebra::FragmentSet>(
                           std::move(value)));
  }

  /// \brief As above, for a closure the caller already holds by shared_ptr
  /// (the executor publishes a closure and keeps reading the same copy).
  bool Insert(const std::string& key,
              std::shared_ptr<const algebra::FragmentSet> shared) {
    size_t bytes = ApproxBytes(*shared);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        entries_.try_emplace(key, Entry{std::move(shared), bytes, ++tick_});
    if (!inserted) return false;
    bytes_ += bytes;
    EvictOverBudgetLocked();
    return true;
  }

  /// Number of cached closures.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  /// Approximate bytes held by cached closures.
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  /// Lookup hits since construction (or the last Clear).
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  /// Lookup misses since construction (or the last Clear).
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }
  /// Entries evicted to honour the limits since construction (or Clear).
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    bytes_ = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const algebra::FragmentSet> value;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  /// Rough footprint of one cached closure: node ids plus per-fragment and
  /// per-entry bookkeeping overhead.
  static size_t ApproxBytes(const algebra::FragmentSet& set) {
    size_t bytes = 128;  // entry + key + hash-map overhead
    for (const algebra::Fragment& f : set) {
      bytes += sizeof(algebra::Fragment) + f.size() * sizeof(doc::NodeId) + 32;
    }
    return bytes;
  }

  void EvictOverBudgetLocked() {
    while (!entries_.empty() &&
           ((limits_.max_entries != 0 &&
             entries_.size() > limits_.max_entries) ||
            (limits_.max_bytes != 0 && bytes_ > limits_.max_bytes))) {
      auto victim = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      bytes_ -= victim->second.bytes;
      entries_.erase(victim);
      ++evictions_;
    }
  }

  FixedPointCacheLimits limits_;
  mutable std::mutex mutex_;
  /// mutable: Find (const) stamps recency ticks on the entry it returns.
  mutable std::unordered_map<std::string, Entry> entries_;
  mutable uint64_t tick_ = 0;
  size_t bytes_ = 0;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace xfrag::query

#endif  // XFRAG_QUERY_FIXED_POINT_CACHE_H_
