// Bounded LRU cache of estimation responses for optimizer-style repeated
// probing.
//
// A query optimizer asks for J(τ) at many thresholds while costing plans
// (the threshold_explorer and query_optimizer examples show the pattern).
// Two design points follow:
//
//   * The key is exact: ExactKey(request) (estimate_request.h), and nothing
//     else. Each engine owns its cache, so the key need not name a
//     dataset: the static engine's dataset never changes, and the
//     streaming engine clears its cache on every mutation. An estimate is
//     a statement about one specific threshold under one specific
//     statistical policy, and serving a
//     τ=0.72 probe a response sampled at τ=0.70 silently mislabels the
//     estimate, its error bar and its sampling cost. (Earlier versions
//     keyed on a τ-bucket and did exactly that;
//     tests/service/estimate_cache_test.cc now pins the never-alias
//     behavior.) Keying on trials and seed keeps two further
//     invariants: a request for an 8-trial error bar is never served a
//     cached single-trial response, and changing the seed really draws a
//     fresh sample.
//
//   * Storage is one exact LRU behind one mutex, so `capacity` is the
//     number of responses actually kept. The batched pipeline does every
//     Lookup and Insert on the calling thread (RunCachedBatch's sequential
//     pre- and post-pass), and the server calls an engine only under its
//     tenant mutex, so the lock is never contended on the hot path; it
//     exists for concurrent in-process callers, e.g. two
//     CardinalityProviders sharing one service.

#ifndef VSJ_SERVICE_ESTIMATE_CACHE_H_
#define VSJ_SERVICE_ESTIMATE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "vsj/service/estimate_request.h"

namespace vsj {

/// An EstimateCache's counters; stats() returns a copy. They count per
/// instance whether or not metrics are enabled (the global MetricRegistry
/// mirrors them as cache.* when they are).
struct EstimateCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Bounded LRU map from a request's ExactKey to a previously computed
/// EstimateResponse. Thread-safe.
class EstimateCache {
 public:
  /// `capacity` bounds the number of cached responses; a cache of
  /// capacity 0 keeps none (its owner skips it).
  explicit EstimateCache(size_t capacity = 1024);

  /// Returns the response cached under `key`, refreshing its LRU
  /// position, or nullopt. Counts a hit or a miss.
  std::optional<EstimateResponse> Lookup(const std::string& key);

  /// Inserts (or overwrites) the response under `key`, evicting the least
  /// recently used entry when the cache is full.
  void Insert(std::string key, const EstimateResponse& response);

  /// Drops every entry (the counters stay). The streaming engine calls it
  /// on every mutation, so no entry outlives the live set it answered.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  EstimateCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    EstimateResponse response;
  };

  const size_t capacity_;

  mutable std::mutex mutex_;
  // Most recently used at the front. The index points into the list and
  // its keys view the entries' own keys, so each key is stored once.
  std::list<Entry> lru_;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  EstimateCacheStats stats_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATE_CACHE_H_
