// Sharded LRU cache of estimation responses for optimizer-style repeated
// probing.
//
// A query optimizer asks for J(τ) at many thresholds while costing plans
// (the threshold_explorer and query_optimizer examples show the pattern),
// and the batched pipeline drives the cache from every pool worker at
// once. Two design points follow:
//
//   * The key is exact: ExactKey(request) (estimate_request.h) plus the
//     dataset fingerprint. An estimate is a statement about one specific
//     threshold under one specific statistical policy, and serving a
//     τ=0.72 probe a response sampled at τ=0.70 silently mislabels the
//     estimate, its error bar and its sampling cost. (Earlier versions
//     keyed on a τ-bucket and did exactly that;
//     tests/service/estimate_cache_test.cc now pins the never-alias
//     behavior.) Keying on trials and seed keeps two further
//     invariants: a request for an 8-trial error bar is never served a
//     cached single-trial response, and changing the seed really draws a
//     fresh sample.
//
//   * Storage is sharded. Entries spread over `num_shards` independent
//     LRU maps, each behind its own mutex, so concurrent workers of a
//     batch don't serialize on one global lock. The shard is picked from
//     the estimator name and τ rounded down to a multiple of 0.01 (a
//     fixed placement hint, never part of the key), colocating an
//     optimizer's sweep of nearby thresholds so one plan-costing session
//     evicts its own history before anyone else's. LRU order is exact per
//     shard, approximate globally — capacity splits evenly across shards.
//
// Thread safety: all methods are shard-mutex-guarded; the cache may be
// shared by concurrent CardinalityProviders.

#ifndef VSJ_SERVICE_ESTIMATE_CACHE_H_
#define VSJ_SERVICE_ESTIMATE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "vsj/obs/metrics.h"
#include "vsj/service/estimate_request.h"

namespace vsj {

/// Value snapshot of an EstimateCache's counters, assembled by stats().
/// The live counts are obs::Counter/obs::Gauge members of the cache
/// (mirrored into the global MetricRegistry as cache.* when metrics are
/// enabled) — this struct is a read-only view, not a second stats
/// mechanism.
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

/// Sharded bounded LRU map from the exact request key to a previously
/// computed EstimateResponse.
class EstimateCache {
 public:
  static constexpr size_t kDefaultNumShards = 8;

  /// `capacity` bounds the total number of cached responses across shards
  /// (> 0); `num_shards` is the lock-splitting factor (> 0; 1 gives a
  /// single exact global LRU).
  explicit EstimateCache(size_t capacity = 1024,
                         size_t num_shards = kDefaultNumShards);

  /// Returns the cached response for `request`'s key over the dataset with
  /// `fingerprint`, refreshing its LRU position, or nullopt. Counts a hit
  /// or a miss.
  std::optional<EstimateResponse> Lookup(const EstimateRequest& request,
                                         uint64_t fingerprint);

  /// Inserts (or overwrites) the response under `request`'s key, evicting
  /// the shard's least recently used entry when the shard is full.
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
  size_t num_shards() const { return shards_.size(); }
  EstimateCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    EstimateResponse response;
  };

  /// One independently locked LRU map. Most recently used at the front;
  /// the index points into the list.
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  std::string MakeKey(const EstimateRequest& request,
                      uint64_t fingerprint) const;
  Shard& ShardFor(const EstimateRequest& request);

  size_t capacity_;        // nominal total across shards
  size_t shard_capacity_;  // per-shard bound, ceil(capacity / num_shards)

  // Constructed once at the ctor; never resized (Shard is immovable).
  std::vector<Shard> shards_;

  // Live stats: lock-free obs primitives shared by all shards, so stats()
  // never contends with any shard mutex and per-instance counts stay
  // available even with the global metrics flag off (tests rely on them
  // unconditionally).
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter insertions_;
  obs::Counter evictions_;
  obs::Gauge epoch_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATE_CACHE_H_
