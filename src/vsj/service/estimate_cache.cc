#include "vsj/service/estimate_cache.h"

#include <utility>

#include "vsj/obs/obs.h"

namespace vsj {

EstimateCache::EstimateCache(size_t capacity) : capacity_(capacity) {}

std::optional<EstimateResponse> EstimateCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    VSJ_COUNTER_ADD("cache.misses", 1);
    return std::nullopt;
  }
  ++stats_.hits;
  VSJ_COUNTER_ADD("cache.hits", 1);
  lru_.splice(lru_.begin(), lru_, it->second);
  EstimateResponse response = it->second->response;
  response.from_cache = true;
  return response;
}

void EstimateCache::Insert(std::string key, const EstimateResponse& response) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.insertions;
  VSJ_COUNTER_ADD("cache.insertions", 1);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->response = response;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    VSJ_COUNTER_ADD("cache.evictions", 1);
  }
  lru_.push_front(Entry{std::move(key), response});
  index_.emplace(lru_.front().key, lru_.begin());
}

void EstimateCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  // A burst of writes finds the cache empty after its first mutation.
  // unordered_map::clear() zeroes the whole bucket array even then, and the
  // array keeps the size the largest fill gave it; skip that.
  if (lru_.empty()) return;
  lru_.clear();
  index_.clear();
}

size_t EstimateCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

EstimateCacheStats EstimateCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace vsj
