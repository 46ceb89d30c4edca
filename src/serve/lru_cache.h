#ifndef SUBREC_SERVE_LRU_CACHE_H_
#define SUBREC_SERVE_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace subrec::serve {

/// Sharded LRU cache: the key hash picks a shard, each shard is an
/// independently-locked map + recency list, so concurrent lookups on
/// different shards never contend. Capacity is divided evenly across
/// shards (so eviction is per-shard approximate LRU, the standard
/// trade-off). Hit/miss tallies are process-cheap relaxed atomics.
///
/// The shard is SplitMix64(Hash(key)) % num_shards. The mix matters:
/// libstdc++'s std::hash of an integer is the identity, so a plain modulo
/// would let the key's low bits alone pick the shard, and a key family
/// that varies only in its high bits would crowd into one shard.
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  /// `shards_used` counts non-empty shards: a shard adds 1 when it turns
  /// non-empty and takes it back when Clear or the destructor empties it,
  /// so caches that share one gauge read as their total. It moves at most
  /// num_shards times between two Clears, never on a request that finds
  /// its shard already populated.
  ShardedLruCache(size_t capacity, size_t num_shards, obs::Gauge* shards_used)
      : per_shard_capacity_((capacity + num_shards - 1) / num_shards),
        shards_used_(shards_used) {
    SUBREC_CHECK_GT(capacity, 0u);
    SUBREC_CHECK_GT(num_shards, 0u);
    SUBREC_CHECK(shards_used != nullptr);
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
  }

  ~ShardedLruCache() { Clear(); }
  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Returns a copy of the cached value and refreshes its recency.
  std::optional<V> Get(const K& key) {
    Shard& shard = ShardFor(key);
    common::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  /// Inserts or overwrites; evicts the shard's least-recent entry on
  /// overflow.
  void Put(const K& key, V value) {
    Shard& shard = ShardFor(key);
    common::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.map[key] = shard.order.begin();
    // Eviction never empties a shard, so this is its one empty to
    // non-empty transition until the next Clear.
    if (shard.map.size() == 1) shards_used_->Add(1.0);
    if (shard.map.size() > per_shard_capacity_) {
      shard.map.erase(shard.order.back().first);
      shard.order.pop_back();
    }
  }

  /// Drops every entry (explicit invalidation, e.g. on snapshot swap).
  /// Each shard's count goes back under its own lock, so a Put that
  /// refills an already-cleared shard is counted after that shard's
  /// decrement, never on top of it.
  void Clear() {
    for (auto& shard : shards_) {
      common::MutexLock lock(&shard->mu);
      if (!shard->map.empty()) shards_used_->Add(-1.0);
      shard->map.clear();
      shard->order.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      common::MutexLock lock(&shard->mu);
      total += shard->map.size();
    }
    return total;
  }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    mutable common::Mutex mu;
    // front = most recent
    std::list<std::pair<K, V>> order SUBREC_GUARDED_BY(mu);
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator,
                       Hash>
        map SUBREC_GUARDED_BY(mu);
  };

  Shard& ShardFor(const K& key) {
    return *shards_[SplitMix64(static_cast<uint64_t>(Hash{}(key))) %
                    shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t per_shard_capacity_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  obs::Gauge* const shards_used_;
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_LRU_CACHE_H_
