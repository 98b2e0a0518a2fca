#include "vsj/service/estimate_cache.h"

#include <gtest/gtest.h>

namespace vsj {
namespace {

EstimateRequest MakeRequest(const char* estimator, double tau,
                            size_t trials = 3, uint64_t seed = 1) {
  EstimateRequest request;
  request.estimator_name = estimator;
  request.tau = tau;
  request.trials = trials;
  request.seed = seed;
  return request;
}

EstimateResponse MakeResponse(double tau, double estimate) {
  EstimateResponse response;
  response.tau = tau;
  response.estimator_name = "LSH-SS";
  response.mean_estimate = estimate;
  response.trials = 3;
  return response;
}

TEST(EstimateCacheTest, MissThenHit) {
  EstimateCache cache(16);
  const EstimateRequest request = MakeRequest("LSH-SS", 0.805);
  EXPECT_FALSE(cache.Lookup(ExactKey(request)).has_value());
  cache.Insert(ExactKey(request), MakeResponse(0.805, 1234.0));
  const auto hit = cache.Lookup(ExactKey(request));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_estimate, 1234.0);
  EXPECT_TRUE(hit->from_cache);
}

TEST(EstimateCacheTest, NearbyTauNeverAliases) {
  // Regression: the key is the exact τ bit pattern, never the τ-bucket.
  // 0.802 and 0.808 fall into bucket 80 at width 0.01 — an earlier
  // bucket-keyed cache served one's response for the other, silently
  // mislabeling the estimate, its error bar, and its sampling cost.
  EstimateCache cache(16);
  cache.Insert(ExactKey(MakeRequest("LSH-SS", 0.802)),
               MakeResponse(0.802, 500.0));
  EXPECT_FALSE(
      cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.808))).has_value());
  const auto hit = cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.802)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_estimate, 500.0);
  EXPECT_DOUBLE_EQ(hit->tau, 0.802);
}

TEST(EstimateCacheTest, KeyIncludesErrorBoundAndOverrides) {
  EstimateCache cache(16);
  const EstimateRequest base = MakeRequest("LSH-SS", 0.805);
  cache.Insert(ExactKey(base), MakeResponse(0.805, 500.0));

  EstimateRequest bounded = base;
  bounded.max_rel_error = 0.05;
  EXPECT_FALSE(cache.Lookup(ExactKey(bounded)).has_value());

  EstimateRequest overridden = base;
  overridden.delta = 16;
  EXPECT_FALSE(cache.Lookup(ExactKey(overridden)).has_value());

  overridden = base;
  overridden.sample_size_h = 128;
  EXPECT_FALSE(cache.Lookup(ExactKey(overridden)).has_value());

  EXPECT_TRUE(cache.Lookup(ExactKey(base)).has_value());
}

TEST(EstimateCacheTest, CacheBoundsTotalSize) {
  // The footprint fills to capacity exactly and every overflow is an
  // accounted eviction.
  EstimateCache cache(8);
  const int kInserted = 32;
  for (int i = 0; i < kInserted; ++i) {
    const std::string name = "est" + std::to_string(i);
    cache.Insert(ExactKey(MakeRequest(name.c_str(), 0.5)),
                 MakeResponse(0.5, i));
  }
  EXPECT_EQ(cache.size(), cache.capacity());
  EXPECT_EQ(cache.stats().evictions, 24u);
}

TEST(EstimateCacheTest, HoldsItsFullCapacityForOneEstimatorAndTau) {
  // Regression: keys of one estimator at one τ all landed in one of eight
  // shards of ceil(1024/8) = 128 entries, so a default cache kept only 128
  // of 200 same-τ responses.
  EstimateCache cache;
  const int kSeeds = 200;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    cache.Insert(ExactKey(MakeRequest("LSH-SS", 0.8, 3, seed)),
                 MakeResponse(0.8, seed));
  }
  for (int seed = 1; seed <= kSeeds; ++seed) {
    EXPECT_TRUE(cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.8, 3, seed))))
        << "seed=" << seed;
  }
  EXPECT_EQ(cache.stats().hits, 200u);
  EXPECT_EQ(cache.size(), 200u);
}

TEST(EstimateCacheTest, KeyIncludesEstimator) {
  EstimateCache cache(16);
  cache.Insert(ExactKey(MakeRequest("LSH-SS", 0.805)),
               MakeResponse(0.805, 500.0));
  EXPECT_FALSE(
      cache.Lookup(ExactKey(MakeRequest("RS(pop)", 0.805))).has_value());
  EXPECT_TRUE(cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.805))).has_value());
}

TEST(EstimateCacheTest, KeyIncludesTrialsAndSeed) {
  EstimateCache cache(16);
  cache.Insert(ExactKey(MakeRequest("LSH-SS", 0.805, /*trials=*/1, /*seed=*/1)),
               MakeResponse(0.805, 500.0));
  // A request for an 8-trial error bar must not be served the single-trial
  // response, and a different seed must draw fresh.
  EXPECT_FALSE(
      cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.805, 8, 1))).has_value());
  EXPECT_FALSE(
      cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.805, 1, 2))).has_value());
  EXPECT_TRUE(
      cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.805, 1, 1))).has_value());
}

TEST(EstimateCacheTest, HitMissAccounting) {
  EstimateCache cache(16);
  const EstimateRequest request = MakeRequest("LSH-SS", 0.5);
  cache.Lookup(ExactKey(request));                     // miss
  cache.Insert(ExactKey(request), MakeResponse(0.5, 10.0));
  cache.Lookup(ExactKey(request));                     // hit
  cache.Lookup(ExactKey(request));                     // hit
  cache.Lookup(ExactKey(MakeRequest("LSH-SS", 0.9)));  // miss
  const EstimateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(EstimateCacheTest, EvictsLeastRecentlyUsed) {
  EstimateCache cache(2);
  cache.Insert(ExactKey(MakeRequest("A", 0.5)), MakeResponse(0.5, 1.0));
  cache.Insert(ExactKey(MakeRequest("B", 0.5)), MakeResponse(0.5, 2.0));
  // Touch A so B becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(ExactKey(MakeRequest("A", 0.5))).has_value());
  cache.Insert(ExactKey(MakeRequest("C", 0.5)), MakeResponse(0.5, 3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(ExactKey(MakeRequest("A", 0.5))).has_value());
  EXPECT_FALSE(cache.Lookup(ExactKey(MakeRequest("B", 0.5))).has_value());
  EXPECT_TRUE(cache.Lookup(ExactKey(MakeRequest("C", 0.5))).has_value());
}

TEST(EstimateCacheTest, InsertOverwritesSameKey) {
  EstimateCache cache(4);
  const EstimateRequest request = MakeRequest("LSH-SS", 0.5);
  cache.Insert(ExactKey(request), MakeResponse(0.5, 1.0));
  cache.Insert(ExactKey(request), MakeResponse(0.5, 2.0));
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.Lookup(ExactKey(request));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_estimate, 2.0);
}

TEST(EstimateCacheTest, ClearEmptiesButKeepsStats) {
  EstimateCache cache(4);
  const EstimateRequest request = MakeRequest("LSH-SS", 0.5);
  cache.Insert(ExactKey(request), MakeResponse(0.5, 1.0));
  cache.Lookup(ExactKey(request));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(ExactKey(request)).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace vsj
