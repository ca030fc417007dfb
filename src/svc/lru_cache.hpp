// Generic content-addressed LRU cache.
//
// Both service caches — computed schedules and per-fabric platform
// contexts — are the same structure: a bounded map from a canonical
// 64-bit content fingerprint to a shared_ptr of an immutable value, with
// least-recently-used eviction and monotonic hit/miss counters.
// `LruCache<V>` is that structure; `ScheduleCache` (by inheritance) and
// `PlatformCache` (an alias) fix V.
//
// Thread safety: every public member is safe to call concurrently; a
// single mutex guards the LRU list, the index and the counters. Cached
// values are handed out as shared_ptr<const V>, so an entry evicted
// while a client still holds the pointer stays alive for that client.
//
// Besides the snapshot `stats()`, a cache can mirror its traffic into
// registry counters (`bind_counters`): each get() bumps the bound hit
// or miss counter exactly once, each eviction the eviction counter, so
// the `*_{hits,misses,evictions}_total` series the metrics snapshot
// exports track stats() one-for-one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace edgesched::svc {

/// Monotonic cache counters (snapshot; see LruCache::stats()).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

template <typename V>
class LruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  /// Capacity is the maximum number of retained entries; must be >= 1.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    throw_if(capacity == 0, "LruCache: capacity must be >= 1");
  }

  /// Mirrors cache traffic into externally owned counters (typically a
  /// MetricsRegistry's `*_total` series): every subsequent hit, miss and
  /// eviction increments the corresponding counter once. Null pointers
  /// disable the respective mirror. The counters must outlive the cache.
  void bind_counters(obs::Counter* hits, obs::Counter* misses,
                     obs::Counter* evictions) {
    const std::lock_guard<std::mutex> lock(mutex_);
    hits_counter_ = hits;
    misses_counter_ = misses;
    evictions_counter_ = evictions;
  }

  /// Returns the cached value and refreshes its LRU position, or nullptr
  /// on a miss. Counts a hit or a miss.
  [[nodiscard]] ValuePtr get(std::uint64_t key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      if (misses_counter_ != nullptr) {
        misses_counter_->increment();
      }
      return nullptr;
    }
    ++stats_.hits;
    if (hits_counter_ != nullptr) {
      hits_counter_->increment();
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return it->second->second;
  }

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// one when full. A put of an existing key replaces the value.
  void put(std::uint64_t key, ValuePtr value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
      if (evictions_counter_ != nullptr) {
        evictions_counter_->increment();
      }
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    ++stats_.insertions;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Drops every entry; counters are preserved.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
  }

 private:
  using LruList = std::list<std::pair<std::uint64_t, ValuePtr>>;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, typename LruList::iterator> index_;
  CacheStats stats_;
  obs::Counter* hits_counter_ = nullptr;  ///< see bind_counters()
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace edgesched::svc
