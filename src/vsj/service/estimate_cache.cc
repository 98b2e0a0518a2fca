#include "vsj/service/estimate_cache.h"

#include <cmath>
#include <functional>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"
#include "vsj/util/hash.h"

namespace vsj {

namespace {

/// Width of the τ slices that pick a shard (placement only, not the key).
constexpr double kShardTauWidth = 0.01;

}  // namespace

EstimateCache::EstimateCache(size_t capacity, size_t num_shards)
    : capacity_(capacity),
      shard_capacity_((capacity + num_shards - 1) / num_shards),
      shards_(num_shards) {
  VSJ_CHECK(capacity > 0);
  VSJ_CHECK(num_shards > 0);
}

std::string EstimateCache::MakeKey(const EstimateRequest& request,
                                   uint64_t fingerprint) const {
  std::string key = ExactKey(request);
  key.push_back('|');
  key.append(std::to_string(fingerprint));
  return key;
}

EstimateCache::Shard& EstimateCache::ShardFor(const EstimateRequest& request) {
  // The shard hint: estimator × τ rounded down to kShardTauWidth, so an
  // optimizer's sweep of nearby thresholds lands in one shard and competes
  // only with itself for eviction. Exact τ bits stay out of the hint on
  // purpose — they are the key's job.
  const auto tau_bucket =
      static_cast<int64_t>(std::floor(request.tau / kShardTauWidth));
  const uint64_t hint =
      HashCombine(std::hash<std::string>{}(request.estimator_name),
                  static_cast<uint64_t>(tau_bucket));
  return shards_[hint % shards_.size()];
}

std::optional<EstimateResponse> EstimateCache::Lookup(
    const EstimateRequest& request, uint64_t fingerprint) {
  const std::string key = MakeKey(request, fingerprint);
  Shard& shard = ShardFor(request);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.Add(1);
    VSJ_COUNTER_ADD("cache.misses", 1);
    return std::nullopt;
  }
  hits_.Add(1);
  VSJ_COUNTER_ADD("cache.hits", 1);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  EstimateResponse response = it->second->response;
  response.from_cache = true;
  return response;
}

void EstimateCache::Insert(const EstimateRequest& request,
                           uint64_t fingerprint,
                           const EstimateResponse& response) {
  std::string key = MakeKey(request, fingerprint);
  Shard& shard = ShardFor(request);
  std::lock_guard<std::mutex> lock(shard.mutex);
  insertions_.Add(1);
  VSJ_COUNTER_ADD("cache.insertions", 1);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->response = response;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.Add(1);
    VSJ_COUNTER_ADD("cache.evictions", 1);
  }
  shard.lru.push_front(Entry{key, response});
  shard.index.emplace(std::move(key), shard.lru.begin());
}

void EstimateCache::NoteInvalidation() {
  epoch_.Add(1);
  VSJ_COUNTER_ADD("cache.invalidations", 1);
}

void EstimateCache::RestoreEpoch(uint64_t epoch) {
  epoch_.Set(static_cast<int64_t>(epoch));
}

void EstimateCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t EstimateCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

EstimateCacheStats EstimateCache::stats() const {
  EstimateCacheStats snapshot;
  snapshot.hits = hits_.Value();
  snapshot.misses = misses_.Value();
  snapshot.insertions = insertions_.Value();
  snapshot.evictions = evictions_.Value();
  snapshot.epoch = static_cast<uint64_t>(epoch_.Value());
  return snapshot;
}

}  // namespace vsj
