#include "vsj/service/estimate_cache.h"

#include "vsj/obs/obs.h"
#include "vsj/util/decimal.h"

namespace vsj {

namespace {

std::string MakeKey(const EstimateRequest& request, uint64_t fingerprint) {
  std::string key = ExactKey(request);
  key.push_back('|');
  AppendDecimal(&key, fingerprint);
  return key;
}

}  // namespace

EstimateCache::EstimateCache(size_t capacity) : capacity_(capacity) {}

std::optional<EstimateResponse> EstimateCache::Lookup(
    const EstimateRequest& request, uint64_t fingerprint) {
  const std::string key = MakeKey(request, fingerprint);
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

void EstimateCache::Insert(const EstimateRequest& request,
                           uint64_t fingerprint,
                           const EstimateResponse& response) {
  if (capacity_ == 0) return;
  std::string key = MakeKey(request, fingerprint);
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
  lru_.push_front(Entry{key, response});
  index_.emplace(std::move(key), lru_.begin());
}

void EstimateCache::NoteInvalidation() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.epoch;
  VSJ_COUNTER_ADD("cache.invalidations", 1);
}

void EstimateCache::RestoreEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.epoch = epoch;
}

void EstimateCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
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
