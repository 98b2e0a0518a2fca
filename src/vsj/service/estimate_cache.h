// Bounded LRU cache of estimation responses for optimizer-style repeated
// probing.
//
// A query optimizer asks for J(τ) at many thresholds while costing plans
// (the threshold_explorer and query_optimizer examples show the pattern).
// Two design points follow:
//
//   * The key is exact: ExactKey(request) (estimate_request.h) plus the
//     owner's fingerprint. Only the streaming engine folds one in, its
//     dataset fingerprint combined with its mutation epoch; the static
//     engine's cache sits over a dataset that never changes and passes 0,
//     so opening a static tenant hashes no dataset. An estimate is a
//     statement about one specific threshold under one specific
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
  /// Number of invalidation events observed via NoteInvalidation — for an
  /// epoch-keyed owner (StreamingEstimationService) this is the current
  /// epoch, making "did the mutation really invalidate the cache?"
  /// observable from the outside.
  uint64_t epoch = 0;

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Bounded LRU map from the exact request key to a previously computed
/// EstimateResponse. Thread-safe.
class EstimateCache {
 public:
  /// `capacity` bounds the number of cached responses; a cache of
  /// capacity 0 keeps none (its owner skips it).
  explicit EstimateCache(size_t capacity = 1024);

  /// Returns the cached response for `request`'s key under the owner's
  /// `fingerprint`, refreshing its LRU position, or nullopt. Counts a hit
  /// or a miss.
  std::optional<EstimateResponse> Lookup(const EstimateRequest& request,
                                         uint64_t fingerprint);

  /// Inserts (or overwrites) the response under `request`'s key, evicting
  /// the least recently used entry when the cache is full.
  void Insert(const EstimateRequest& request, uint64_t fingerprint,
              const EstimateResponse& response);

  void Clear();

  /// Records an invalidation event (bumps stats().epoch). Owners that key
  /// entries on an epoch-folded fingerprint call this on every mutation;
  /// stale entries stay resident until LRU eviction but can never match a
  /// post-mutation key.
  void NoteInvalidation();

  /// Snapshot support: sets stats().epoch to a checkpointed value so a
  /// restored owner's epoch counter picks up where the original left off
  /// (entries themselves are not persisted — estimates are deterministic,
  /// so a cold cache recomputes identical responses).
  void RestoreEpoch(uint64_t epoch);

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
  // Most recently used at the front; the index points into the list.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  EstimateCacheStats stats_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATE_CACHE_H_
