// Tests of the concurrent estimation service: the determinism contract
// (batch results independent of thread count), the parallel index build
// being bit-identical to the serial build, cache behaviour across batches,
// and the CardinalityProvider facade.

#include "vsj/service/estimation_service.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/net/protocol.h"
#include "vsj/service/cardinality_provider.h"
#include "vsj/service/streaming_estimation_service.h"

namespace vsj {
namespace {

VectorDataset TestCorpus(size_t n = 600, uint64_t seed = 7) {
  return testing::SmallClusteredCorpus(n, seed);
}

EstimationServiceOptions SmallOptions(size_t threads, bool cache = true) {
  EstimationServiceOptions options;
  options.k = 8;
  options.num_tables = 2;
  options.num_threads = threads;
  options.family_seed = 0x5eed;
  options.cache_capacity = cache ? 1024 : 0;
  return options;
}

std::vector<EstimateRequest> MixedBatch() {
  std::vector<EstimateRequest> batch;
  for (double tau : {0.5, 0.6, 0.7, 0.8}) {
    for (const char* name : {"LSH-SS", "RS(pop)", "LSH-S"}) {
      EstimateRequest request;
      request.estimator_name = name;
      request.tau = tau;
      request.trials = 3;
      request.seed = 42;
      batch.push_back(request);
    }
  }
  return batch;
}

TEST(EstimationServiceTest, BatchIsBitIdenticalAcrossThreadCounts) {
  const std::vector<EstimateRequest> batch = MixedBatch();

  std::vector<EstimateResponse> baseline;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    EstimationService service(TestCorpus(), SmallOptions(threads, false));
    const std::vector<EstimateResponse> responses =
        service.EstimateBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    if (threads == 1) {
      baseline = responses;
      continue;
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      // Bit-identical, not approximately equal: the per-request RNG stream
      // may not depend on scheduling.
      EXPECT_EQ(responses[i].mean_estimate, baseline[i].mean_estimate)
          << "threads=" << threads << " request=" << i;
      EXPECT_EQ(responses[i].std_dev, baseline[i].std_dev)
          << "threads=" << threads << " request=" << i;
      EXPECT_EQ(responses[i].pairs_evaluated, baseline[i].pairs_evaluated)
          << "threads=" << threads << " request=" << i;
      EXPECT_EQ(responses[i].num_unguaranteed, baseline[i].num_unguaranteed)
          << "threads=" << threads << " request=" << i;
    }
  }
}

TEST(EstimationServiceTest, RepeatedBatchesAreReproducible) {
  EstimationService service(TestCorpus(), SmallOptions(4, false));
  const std::vector<EstimateRequest> batch = MixedBatch();
  const auto first = service.EstimateBatch(batch);
  const auto second = service.EstimateBatch(batch);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].mean_estimate, second[i].mean_estimate) << i;
  }
}

TEST(EstimationServiceTest, ParallelIndexBuildMatchesSerial) {
  const VectorDataset dataset = TestCorpus(500);
  SimHashFamily family(0xfeedULL);
  const LshIndex serial(family, dataset, 10, 3);
  ThreadPool pool(4);
  const LshIndex parallel(family, dataset, 10, 3, &pool);

  ASSERT_EQ(serial.num_tables(), parallel.num_tables());
  for (uint32_t t = 0; t < serial.num_tables(); ++t) {
    const LshTable& a = serial.table(t);
    const LshTable& b = parallel.table(t);
    ASSERT_EQ(a.num_buckets(), b.num_buckets()) << t;
    EXPECT_EQ(a.NumSameBucketPairs(), b.NumSameBucketPairs()) << t;
    for (size_t bucket = 0; bucket < a.num_buckets(); ++bucket) {
      ASSERT_EQ(a.BucketKey(bucket), b.BucketKey(bucket)) << t;
      const auto bucket_a = a.bucket(bucket);
      const auto bucket_b = b.bucket(bucket);
      ASSERT_TRUE(std::equal(bucket_a.begin(), bucket_a.end(),
                             bucket_b.begin(), bucket_b.end()))
          << t;
    }
    for (VectorId id = 0; id < dataset.size(); ++id) {
      ASSERT_EQ(a.BucketOf(id), b.BucketOf(id)) << t;
    }
  }
}

TEST(EstimationServiceTest, SingleEstimateMatchesBatchOfOne) {
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = 0.7;
  request.trials = 5;
  request.seed = 9;

  EstimationService a(TestCorpus(), SmallOptions(1, false));
  EstimationService b(TestCorpus(), SmallOptions(4, false));
  const EstimateResponse single = a.Estimate(request);
  const EstimateResponse batched = b.EstimateBatch({request}).front();
  EXPECT_EQ(single.mean_estimate, batched.mean_estimate);
  EXPECT_EQ(single.pairs_evaluated, batched.pairs_evaluated);
}

TEST(EstimationServiceTest, SecondBatchIsServedFromCache) {
  EstimationService service(TestCorpus(), SmallOptions(2, true));
  const std::vector<EstimateRequest> batch = MixedBatch();

  const auto first = service.EstimateBatch(batch);
  for (const auto& response : first) EXPECT_FALSE(response.from_cache);

  const auto second = service.EstimateBatch(batch);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache) << i;
    EXPECT_EQ(second[i].mean_estimate, first[i].mean_estimate) << i;
  }

  const EstimateCacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.hits, batch.size());
  EXPECT_EQ(stats.misses, batch.size());
}

TEST(EstimationServiceTest, CacheHoldsItsCapacityAtOneTau) {
  // Regression: with the default 1024-entry cache split into eight shards
  // and one estimator at one τ always hashed to the same shard, a re-ask
  // of 200 seeds at τ = 0.8 was served only 128 responses from the cache.
  EstimationService service(TestCorpus(), SmallOptions(2, true));
  std::vector<EstimateRequest> batch;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    EstimateRequest request;
    request.estimator_name = "LSH-SS";
    request.tau = 0.8;
    request.trials = 1;
    request.seed = seed;
    batch.push_back(request);
  }
  service.EstimateBatch(batch);
  const auto second = service.EstimateBatch(batch);
  const size_t cached = static_cast<size_t>(
      std::count_if(second.begin(), second.end(),
                    [](const EstimateResponse& r) { return r.from_cache; }));
  EXPECT_EQ(cached, batch.size());
}

TEST(EstimationServiceTest, NearbyTauNeverAliasesCachedEstimate) {
  // Regression: 0.702 and 0.708 share τ-bucket 70 at width 0.01, and an
  // earlier bucket-keyed cache served the 0.702 response for the 0.708
  // probe relabelled with the asked τ — an estimate, error bar, and
  // sampling cost computed at a different threshold. The exact-τ key must
  // recompute, and the exact same τ must still hit.
  EstimationService service(TestCorpus(), SmallOptions(1, true));

  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = 0.702;
  const EstimateResponse first = service.Estimate(request);
  request.tau = 0.708;
  const EstimateResponse neighbor = service.Estimate(request);
  EXPECT_FALSE(neighbor.from_cache);
  EXPECT_EQ(neighbor.tau, 0.708);
  request.tau = 0.702;
  const EstimateResponse reprobe = service.Estimate(request);
  EXPECT_TRUE(reprobe.from_cache);
  EXPECT_EQ(reprobe.tau, 0.702);
  EXPECT_EQ(reprobe.mean_estimate, first.mean_estimate);
}

TEST(EstimationServiceTest, DuplicateRequestsComputeOnceAndAgree) {
  // Cross-request grouping: identical requests in one batch compute once
  // and every follower is served the leader's response — what a cache hit
  // on it would show.
  EstimationService service(TestCorpus(), SmallOptions(2, true));
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = 0.7;
  request.trials = 3;
  request.seed = 11;
  const std::vector<EstimateRequest> batch(4, request);

  const auto responses = service.EstimateBatch(batch);
  ASSERT_EQ(responses.size(), 4u);
  for (const auto& response : responses) {
    EXPECT_FALSE(response.from_cache);
    EXPECT_EQ(response.mean_estimate, responses[0].mean_estimate);
    EXPECT_EQ(response.pairs_evaluated, responses[0].pairs_evaluated);
  }
  EXPECT_EQ(service.cache().stats().insertions, 1u);

  // The group's single compute matches a singleton batch.
  EstimationService fresh(TestCorpus(), SmallOptions(1, false));
  EXPECT_EQ(fresh.Estimate(request).mean_estimate,
            responses[0].mean_estimate);
}

/// The prefix contract of an error-bounded stop: `request` with a sloppy
/// bound stops at the first checkpoint, trial 2, and its answer is byte for
/// byte the same request's with a budget of 2 and no bound, because a
/// response derives from its first trials alone, in trial order.
void ExpectStopIsTwoTrialAnswer(EstimationEngine& engine,
                                EstimateRequest request) {
  request.max_rel_error = 1e6;
  const EstimateResponse stopped = engine.Estimate(request);
  ASSERT_EQ(stopped.trials, 2u);
  request.max_rel_error = 0.0;
  request.trials = 2;
  EXPECT_EQ(net::MakeEstimatePayload(0, stopped),
            net::MakeEstimatePayload(0, engine.Estimate(request)));
}

TEST(EstimationServiceTest, EarlyExitStopsWithinTrialBudget) {
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = 0.6;
  request.trials = 8;
  request.seed = 3;

  EstimationService service(TestCorpus(), SmallOptions(1, false));
  const EstimateResponse full = service.Estimate(request);
  ASSERT_EQ(full.trials, 8u);

  // A sloppy bound exits after the two-trial minimum; the trials that did
  // run are the same prefix of the stream, so mean/std come from the first
  // two full-budget trials.
  request.max_rel_error = 1e6;
  const EstimateResponse loose = service.Estimate(request);
  EXPECT_EQ(loose.trials, 2u);
  EXPECT_LT(loose.pairs_evaluated, full.pairs_evaluated);

  // An unattainable bound runs the whole budget and matches the unbounded
  // response trial for trial.
  request.max_rel_error = 1e-15;
  const EstimateResponse tight = service.Estimate(request);
  EXPECT_EQ(tight.trials, 8u);
  EXPECT_EQ(tight.mean_estimate, full.mean_estimate);
  EXPECT_EQ(tight.pairs_evaluated, full.pairs_evaluated);

  ExpectStopIsTwoTrialAnswer(service, request);

  // The same on a streaming engine after churn, over two tables, so the
  // two trials sample different tables.
  StreamingEstimationServiceOptions streaming_options;
  streaming_options.k = 8;
  streaming_options.num_tables = 2;
  streaming_options.num_threads = 2;
  streaming_options.cache_capacity = 0;
  StreamingEstimationService streaming(TestCorpus(), streaming_options);
  for (VectorId id = 0; id < 500; ++id) streaming.Insert(id);
  for (VectorId id = 0; id < 120; ++id) streaming.Remove(id);
  for (VectorId id = 500; id < 580; ++id) streaming.Insert(id);
  ExpectStopIsTwoTrialAnswer(streaming, request);
}

TEST(EstimationServiceTest, SamplingOverridesShrinkTheSample) {
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = 0.7;
  request.trials = 2;
  request.seed = 5;

  EstimationService service(TestCorpus(), SmallOptions(1, false));
  const EstimateResponse defaults = service.Estimate(request);

  request.sample_size_h = 50;
  request.sample_size_l = 50;
  request.delta = 5;
  const EstimateResponse overridden = service.Estimate(request);
  EXPECT_LT(overridden.pairs_evaluated, defaults.pairs_evaluated);
  // m_H = 50 per trial is a hard floor on the evaluation count.
  EXPECT_GE(overridden.pairs_evaluated, 2u * 50u);
}

TEST(EstimationServiceTest, SamplingOverridesOnlyReachTheLshSsOptions) {
  // RS(pop) never reads m_H, m_L or δ: its override is refused by name
  // instead of answered as if it were absent.
  EstimateRequest request;
  request.estimator_name = "RS(pop)";
  request.tau = 0.7;
  request.trials = 2;
  request.seed = 5;
  request.sample_size_l = 50;
  EstimationService service(TestCorpus(), SmallOptions(1, false));
  const char* error = service.CheckEstimator(request);
  ASSERT_NE(error, nullptr);
  for (const char* name :
       {"LSH-SS,", "LSH-SS(D)", "LSH-SS(median)", "LSH-SS(vbucket)"}) {
    EXPECT_NE(std::string(error).find(name), std::string::npos) << error;
  }
  EXPECT_DEATH(
      {
        EstimationService fresh(TestCorpus(), SmallOptions(1, false));
        fresh.Estimate(request);
      },
      "sampling overrides");

  request.estimator_name = "LSH-SS";
  EXPECT_EQ(service.CheckEstimator(request), nullptr);
  EXPECT_EQ(service.Estimate(request).trials, 2u);
}

TEST(EstimationServiceTest, EachServiceCachesItsOwnDatasetsAnswers) {
  // A static engine keys its cache on the request alone: the cache
  // belongs to one engine over one dataset that never changes. Two
  // services over different datasets must answer the same request
  // differently, and each repeat must be a hit carrying its own service's
  // first answer, byte for byte apart from from_cache.
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = 0.6;
  request.trials = 3;
  request.seed = 42;
  EstimationService a(TestCorpus(600, 1), SmallOptions(2));
  EstimationService b(TestCorpus(600, 2), SmallOptions(2));
  const EstimateResponse first_a = a.EstimateBatch({request})[0];
  const EstimateResponse first_b = b.EstimateBatch({request})[0];
  EXPECT_FALSE(first_a.from_cache);
  EXPECT_FALSE(first_b.from_cache);
  EXPECT_NE(first_a.mean_estimate, first_b.mean_estimate);

  for (const auto& [service, first] :
       {std::pair{&a, first_a}, std::pair{&b, first_b}}) {
    EstimateResponse repeat = service->EstimateBatch({request})[0];
    EXPECT_TRUE(repeat.from_cache);
    repeat.from_cache = false;
    EXPECT_EQ(net::MakeEstimatePayload(1, repeat),
              net::MakeEstimatePayload(1, first));
    EXPECT_EQ(service->cache().stats().hits, 1u);
  }
}

TEST(EstimationServiceTest, EstimatesAreClampedToFeasibleRange) {
  EstimationService service(TestCorpus(), SmallOptions(4, false));
  const auto responses = service.EstimateBatch(MixedBatch());
  const auto max_pairs = static_cast<double>(service.dataset().NumPairs());
  for (const auto& response : responses) {
    EXPECT_GE(response.mean_estimate, 0.0);
    EXPECT_LE(response.mean_estimate, max_pairs);
  }
}

TEST(CardinalityProviderTest, SummaryFieldsAreConsistent) {
  EstimationService service(TestCorpus(), SmallOptions(2, true));
  CardinalityProviderOptions options;
  options.estimator_name = "LSH-SS";
  options.trials = 4;
  options.seed = 5;
  CardinalityProvider provider(service, options);

  const JoinSizeSummary summary = provider.EstimateJoin(0.6);
  EXPECT_EQ(summary.tau, 0.6);
  EXPECT_EQ(summary.estimator_name, "LSH-SS");
  EXPECT_EQ(summary.max_pairs, service.dataset().NumPairs());
  EXPECT_GE(summary.cardinality, 0.0);
  EXPECT_LE(summary.cardinality, static_cast<double>(summary.max_pairs));
  EXPECT_NEAR(summary.selectivity,
              summary.cardinality / static_cast<double>(summary.max_pairs),
              1e-12);
  EXPECT_LE(summary.lower, summary.upper);
  EXPECT_LE(summary.upper, static_cast<double>(summary.max_pairs));
  EstimateRequest request;
  request.tau = 0.6;
  request.trials = 4;
  request.seed = 5;
  const EstimateResponse response = service.Estimate(request);
  EXPECT_EQ(summary.lower,
            EstimateInterval(response.strata, response.trials).lower);
}

TEST(CardinalityProviderTest, BatchSweepAndCachedReprobe) {
  EstimationService service(TestCorpus(), SmallOptions(4, true));
  CardinalityProvider provider(service);

  const std::vector<double> taus = {0.5, 0.6, 0.7, 0.8, 0.9};
  const auto sweep = provider.EstimateJoinBatch(taus);
  ASSERT_EQ(sweep.size(), taus.size());
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].tau, taus[i]);
    EXPECT_FALSE(sweep[i].from_cache);
  }

  const auto reprobe = provider.EstimateJoinBatch(taus);
  for (size_t i = 0; i < reprobe.size(); ++i) {
    EXPECT_TRUE(reprobe[i].from_cache) << i;
    EXPECT_EQ(reprobe[i].cardinality, sweep[i].cardinality) << i;
  }
}

TEST(CardinalityProviderTest, HigherThresholdNeverExplodesCardinality) {
  // Sanity: the provider's estimates follow the broad monotone shape of
  // J(τ) on a clustered corpus (compare far-apart thresholds only; single
  // estimates are noisy).
  EstimationService service(TestCorpus(1000), SmallOptions(2, false));
  CardinalityProviderOptions options;
  options.trials = 8;
  CardinalityProvider provider(service, options);
  const JoinSizeSummary low = provider.EstimateJoin(0.3);
  const JoinSizeSummary high = provider.EstimateJoin(0.95);
  EXPECT_GE(low.cardinality, high.cardinality);
}

}  // namespace
}  // namespace vsj
