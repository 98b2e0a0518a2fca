// Tests of the streaming estimation engine: agreement with a freshly-built
// static EstimationService over the same live subset, batch determinism
// across thread counts, and cache invalidation (every mutation clears the
// cache, so a post-mutation estimate can never be served a pre-mutation
// value, and stale entries never crowd out live ones). The churn tests
// check the dynamic index's invariants after every mutation.

#include "vsj/service/streaming_estimation_service.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "index_invariants.h"
#include "test_util.h"
#include "vsj/join/brute_force_join.h"
#include "vsj/net/protocol.h"
#include "vsj/service/estimation_service.h"

namespace vsj {
namespace {

StreamingEstimationServiceOptions StreamOptions(size_t threads = 1,
                                                bool cache = true,
                                                uint32_t tables = 1) {
  StreamingEstimationServiceOptions options;
  options.k = 8;
  options.num_tables = tables;
  options.num_threads = threads;
  options.family_seed = 0x5eed;
  options.cache_capacity = cache ? 1024 : 0;
  return options;
}

EstimateRequest LshSsRequest(double tau, size_t trials = 10,
                             uint64_t seed = 42) {
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = tau;
  request.trials = trials;
  request.seed = seed;
  return request;
}

/// The engine's dynamic index is consistent with itself over its store's
/// whole id space.
::testing::AssertionResult IndexConsistent(
    const StreamingEstimationService& service) {
  return testing::IndexInvariantsHold(service.index(),
                                      service.store().num_ids());
}

/// Applies a scripted sliding-window mutation sequence, checking the index
/// after every mutation; returns the live ids in insertion order.
std::vector<VectorId> ApplyWindowScript(StreamingEstimationService& service) {
  std::vector<VectorId> live;
  for (VectorId id = 0; id < 500; ++id) {
    service.Insert(id);
    EXPECT_TRUE(IndexConsistent(service)) << "insert " << id;
    live.push_back(id);
  }
  for (VectorId id = 0; id < 120; ++id) {
    service.Remove(id);
    EXPECT_TRUE(IndexConsistent(service)) << "remove " << id;
  }
  live.erase(live.begin(), live.begin() + 120);
  for (VectorId id = 500; id < 580; ++id) {
    service.Insert(id);
    EXPECT_TRUE(IndexConsistent(service)) << "insert " << id;
    live.push_back(id);
  }
  return live;
}

TEST(StreamingEstimationServiceTest, MatchesStaticServiceOverLiveSubset) {
  // Acceptance criterion: after a scripted insert/remove sequence the
  // streaming estimates agree with a freshly-built static EstimationService
  // over the same live subset (same family seed and k) to within sampling
  // tolerance, and both track the exact join size.
  VectorDataset dataset = testing::SmallClusteredCorpus(700, 31);
  // Give SampleL enough budget to stay on the guaranteed path at these
  // thresholds (the default m_L = n hits the safe lower bound, which is
  // deliberately conservative and would obscure the comparison).
  StreamingEstimationServiceOptions stream_options = StreamOptions();
  stream_options.lsh_ss.sample_size_l = 8000;
  StreamingEstimationService streaming(dataset, stream_options);
  const std::vector<VectorId> live = ApplyWindowScript(streaming);

  VectorDataset window;
  for (VectorId id : live) window.Add(dataset[id]);
  EstimationServiceOptions static_options;
  static_options.k = 8;
  static_options.num_tables = 1;
  static_options.family_seed = 0x5eed;
  static_options.cache_capacity = 0;
  static_options.lsh_ss.sample_size_l = 8000;
  EstimationService fixed(std::move(window), static_options);

  for (double tau : {0.3, 0.5}) {
    const auto exact = static_cast<double>(BruteForceJoinSize(
        fixed.dataset(), SimilarityMeasure::kCosine, tau));
    ASSERT_GT(exact, 0.0) << tau;

    const EstimateRequest request = LshSsRequest(tau, /*trials=*/20);
    const double stream_mean =
        streaming.Estimate(request).mean_estimate;
    const double static_mean = fixed.Estimate(request).mean_estimate;

    EXPECT_GT(stream_mean, exact * 0.4) << tau;
    EXPECT_LT(stream_mean, exact * 2.5) << tau;
    EXPECT_GT(static_mean, 0.0) << tau;
    // Both sample the same stratification (identical hash functions over
    // identical live vectors), so their means agree within sampling noise.
    const double ratio = stream_mean / static_mean;
    EXPECT_GT(ratio, 0.4) << tau;
    EXPECT_LT(ratio, 2.5) << tau;
  }
}

TEST(StreamingEstimationServiceTest, BatchIsBitIdenticalAcrossThreadCounts) {
  std::vector<EstimateResponse> baseline;
  for (size_t threads : {1u, 4u}) {
    VectorDataset dataset = testing::SmallClusteredCorpus(700, 33);
    StreamingEstimationService service(
        std::move(dataset), StreamOptions(threads, /*cache=*/false,
                                          /*tables=*/2));
    ApplyWindowScript(service);

    std::vector<EstimateRequest> batch;
    for (double tau : {0.3, 0.5, 0.7, 0.9}) {
      batch.push_back(LshSsRequest(tau, /*trials=*/5));
    }
    const std::vector<EstimateResponse> responses =
        service.EstimateBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    if (threads == 1) {
      baseline = responses;
      continue;
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].mean_estimate, baseline[i].mean_estimate) << i;
      EXPECT_EQ(responses[i].std_dev, baseline[i].std_dev) << i;
      EXPECT_EQ(responses[i].pairs_evaluated, baseline[i].pairs_evaluated)
          << i;
    }
  }
}

TEST(StreamingEstimationServiceTest, RepeatWithoutMutationHitsCache) {
  StreamingEstimationService service(testing::SmallClusteredCorpus(300, 35),
                                     StreamOptions());
  for (VectorId id = 0; id < 200; ++id) service.Insert(id);

  const EstimateRequest request = LshSsRequest(0.5, 4);
  const EstimateResponse first = service.Estimate(request);
  EXPECT_FALSE(first.from_cache);
  const EstimateResponse second = service.Estimate(request);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.mean_estimate, first.mean_estimate);
}

TEST(StreamingEstimationServiceTest, PostMutationEstimateIsNeverStale) {
  // Acceptance criterion: a post-mutation estimate never returns a
  // pre-mutation cached value, for every mutation kind that changes the
  // live set. AddVector appends a vector that is not live, so the cached
  // answer still describes the live set and is served.
  StreamingEstimationService service(testing::SmallClusteredCorpus(300, 37),
                                     StreamOptions());
  for (VectorId id = 0; id < 200; ++id) {
    service.Insert(id);
    ASSERT_TRUE(IndexConsistent(service)) << "insert " << id;
  }

  const EstimateRequest request = LshSsRequest(0.5, 4);
  service.Estimate(request);
  EXPECT_TRUE(service.Estimate(request).from_cache);

  service.Remove(7);
  ASSERT_TRUE(IndexConsistent(service));
  const EstimateResponse after_remove = service.Estimate(request);
  EXPECT_FALSE(after_remove.from_cache);
  EXPECT_TRUE(service.Estimate(request).from_cache);

  service.Insert(210);
  ASSERT_TRUE(IndexConsistent(service));
  EXPECT_FALSE(service.Estimate(request).from_cache);

  const VectorId added = service.AddVector(SparseVector(service.dataset()[0]));
  ASSERT_TRUE(IndexConsistent(service));
  EXPECT_TRUE(service.Estimate(request).from_cache);
  service.Insert(added);
  ASSERT_TRUE(IndexConsistent(service));
  EXPECT_FALSE(service.Estimate(request).from_cache);
}

TEST(StreamingEstimationServiceTest, MutationClearsTheCache) {
  // Stale entries are erased at the mutation, not left to fill the LRU: a
  // cache of capacity 4 full of pre-mutation answers takes 4 new ones
  // without evicting anything.
  StreamingEstimationServiceOptions options = StreamOptions();
  options.cache_capacity = 4;
  StreamingEstimationService service(testing::SmallClusteredCorpus(300, 53),
                                     options);
  for (VectorId id = 0; id < 200; ++id) service.Insert(id);
  for (const double tau : {0.3, 0.5, 0.7, 0.9}) {
    service.Estimate(LshSsRequest(tau, /*trials=*/2));
  }
  ASSERT_EQ(service.cache().size(), 4u);

  service.Insert(200);
  ASSERT_TRUE(IndexConsistent(service));
  for (const double tau : {0.4, 0.6, 0.8, 1.0}) {
    EXPECT_FALSE(service.Estimate(LshSsRequest(tau, 2)).from_cache) << tau;
  }
  EXPECT_EQ(service.cache().size(), 4u);
  EXPECT_EQ(service.cache().stats().evictions, 0u);

  // A fresh engine that saw the same mutations answers both a pre-mutation
  // request (recomputed) and a post-mutation one (now a hit) byte for byte.
  StreamingEstimationService fresh(testing::SmallClusteredCorpus(300, 53),
                                   options);
  for (VectorId id = 0; id <= 200; ++id) fresh.Insert(id);
  for (const double tau : {0.3, 0.6}) {
    const EstimateRequest request = LshSsRequest(tau, 2);
    EstimateResponse repeat = service.Estimate(request);
    EXPECT_EQ(repeat.from_cache, tau == 0.6) << tau;
    repeat.from_cache = false;
    EXPECT_EQ(net::MakeEstimatePayload(1, repeat),
              net::MakeEstimatePayload(1, fresh.Estimate(request)))
        << tau;
  }
}

TEST(StreamingEstimationServiceTest, EpochCountsMutations) {
  StreamingEstimationService service(testing::SmallClusteredCorpus(100, 39),
                                     StreamOptions());
  EXPECT_EQ(service.epoch(), 0u);
  service.Insert(0);
  EXPECT_EQ(service.epoch(), 1u);
  service.Remove(0);
  EXPECT_EQ(service.epoch(), 2u);
  service.AddVector(SparseVector(service.dataset()[1]));
  EXPECT_EQ(service.epoch(), 3u);
  service.Erase(1);
  EXPECT_EQ(service.epoch(), 4u);
}

TEST(StreamingEstimationServiceTest, AddVectorExtendsTheUniverse) {
  VectorDataset dataset = testing::SmallClusteredCorpus(50, 41);
  const SparseVector copy{dataset[0]};
  StreamingEstimationService service(std::move(dataset), StreamOptions());
  const size_t before = service.dataset().size();
  const VectorId id = service.AddVector(copy);
  EXPECT_EQ(id, before);
  service.Insert(id);
  EXPECT_TRUE(service.Contains(id));
  EXPECT_EQ(service.num_live(), 1u);
}

TEST(StreamingEstimationServiceTest, AddVectorKeepsTheCacheAndItsAnswers) {
  // An answer reads the live set, never the store's size: after an append
  // the cached answer is served, and it equals byte for byte what a fresh
  // engine computes over the same live set, with or without the append.
  const SparseVector extra{testing::SmallClusteredCorpus(300, 59)[7]};
  StreamingEstimationService service(testing::SmallClusteredCorpus(300, 59),
                                     StreamOptions());
  for (VectorId id = 0; id < 200; ++id) service.Insert(id);
  const EstimateRequest request = LshSsRequest(0.5, 4);
  EXPECT_FALSE(service.Estimate(request).from_cache);

  const uint64_t epoch_before = service.epoch();
  service.AddVector(extra);
  EXPECT_GT(service.epoch(), epoch_before);  // checkpointing sees it dirty
  EstimateResponse repeat = service.Estimate(request);
  EXPECT_TRUE(repeat.from_cache);
  repeat.from_cache = false;

  for (const bool append : {false, true}) {
    StreamingEstimationService fresh(testing::SmallClusteredCorpus(300, 59),
                                     StreamOptions());
    for (VectorId id = 0; id < 200; ++id) fresh.Insert(id);
    if (append) fresh.AddVector(extra);
    const EstimateResponse cold = fresh.Estimate(request);
    EXPECT_FALSE(cold.from_cache);
    EXPECT_EQ(net::MakeEstimatePayload(1, repeat),
              net::MakeEstimatePayload(1, cold))
        << "append=" << append;
  }
}

TEST(StreamingEstimationServiceTest, FewerThanTwoLiveVectorsEstimateZero) {
  StreamingEstimationService service(testing::SmallClusteredCorpus(50, 43),
                                     StreamOptions());
  const EstimateRequest request = LshSsRequest(0.5, 2);
  EXPECT_EQ(service.Estimate(request).mean_estimate, 0.0);
  service.Insert(0);
  EXPECT_EQ(service.Estimate(request).mean_estimate, 0.0);
}

TEST(StreamingEstimationServiceTest, EraseTombstonesAndCompactionKeepsIds) {
  StreamingEstimationServiceOptions options = StreamOptions();
  options.storage.compact_dead_fraction = 0.25;
  options.storage.min_dead_for_compaction = 8;
  options.storage.chunk_features = 256;
  StreamingEstimationService service(testing::SmallClusteredCorpus(100, 47),
                                     options);
  for (VectorId id = 0; id < 60; ++id) {
    service.Insert(id);
    ASSERT_TRUE(IndexConsistent(service)) << "insert " << id;
  }
  const SparseVector survivor{service.dataset()[59]};

  // Erase enough ids to cross the dead fraction and trigger compaction.
  const uint64_t epoch_before = service.epoch();
  for (VectorId id = 0; id < 30; ++id) {
    service.Erase(id);
    ASSERT_TRUE(IndexConsistent(service)) << "erase " << id;
  }
  EXPECT_GE(service.store().compactions(), 1u);
  EXPECT_EQ(service.num_live(), 30u);
  EXPECT_GT(service.epoch(), epoch_before);

  // Ids are stable across compaction: the estimator still reads the same
  // payloads, and erased ids are gone for good.
  EXPECT_TRUE(service.dataset()[59] == survivor.ref());
  EXPECT_FALSE(service.store().Contains(5));
  EXPECT_TRUE(service.Contains(59));

  // The live set keeps answering after churn + compaction.
  const EstimateResponse response =
      service.Estimate(LshSsRequest(0.4, /*trials=*/4));
  const uint64_t live_pairs = uint64_t{30} * 29 / 2;
  EXPECT_GE(response.mean_estimate, 0.0);
  EXPECT_LE(response.mean_estimate, static_cast<double>(live_pairs));
}

TEST(StreamingEstimationServiceTest, SampleContextPreservesBitIdentity) {
  // The batched pipeline's SampleL amortization: the flat bucket-of arrays
  // must produce the same accept/reject decision as the table's hash-map
  // SameBucket on every drawn pair, so the walk with a context is
  // bit-identical — same estimate, same evaluation count — to the direct
  // walk.
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 17);
  StreamingEstimationService service(std::move(dataset),
                                     StreamOptions(1, false, /*tables=*/2));
  for (VectorId id = 0; id < 350; ++id) {
    service.Insert(id);
    ASSERT_TRUE(IndexConsistent(service)) << "insert " << id;
  }
  for (VectorId id = 0; id < 60; ++id) {
    service.Remove(id);
    ASSERT_TRUE(IndexConsistent(service)) << "remove " << id;
  }

  const StreamingLshSsEstimator estimator(service.dataset(), service.index(),
                                          service.options().measure,
                                          service.options().lsh_ss);
  StreamingSampleContext context;
  context.Build(service.index(), service.dataset().size());
  for (double tau : {0.4, 0.7, 0.9}) {
    for (uint32_t t = 0; t < 2; ++t) {
      for (uint64_t stream = 0; stream < 3; ++stream) {
        Rng direct_rng = Rng(42).Fork(0).Fork(stream);
        Rng context_rng = Rng(42).Fork(0).Fork(stream);
        const EstimationResult direct =
            estimator.EstimateWithTable(tau, t, direct_rng);
        const EstimationResult amortized =
            estimator.EstimateWithTable(tau, t, context_rng, &context);
        EXPECT_EQ(direct.estimate, amortized.estimate)
            << "tau=" << tau << " t=" << t << " stream=" << stream;
        EXPECT_EQ(direct.pairs_evaluated, amortized.pairs_evaluated)
            << "tau=" << tau << " t=" << t << " stream=" << stream;
        EXPECT_EQ(direct.guaranteed, amortized.guaranteed);
      }
    }
  }
}

TEST(StreamingEstimationServiceTest, PerRequestOverridesChangeTheSample) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 23);
  StreamingEstimationService service(std::move(dataset),
                                     StreamOptions(1, false));
  for (VectorId id = 0; id < 300; ++id) service.Insert(id);

  EstimateRequest request = LshSsRequest(0.6, /*trials=*/2);
  const EstimateResponse defaults = service.Estimate(request);

  request.sample_size_h = 40;
  request.sample_size_l = 40;
  request.delta = 4;
  const EstimateResponse overridden = service.Estimate(request);
  EXPECT_LT(overridden.pairs_evaluated, defaults.pairs_evaluated);
  EXPECT_GE(overridden.pairs_evaluated, 2u * 40u);
}

TEST(StreamingEstimationServiceTest, EarlyExitRunsFewerTrials) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 29);
  StreamingEstimationService service(std::move(dataset),
                                     StreamOptions(1, false));
  for (VectorId id = 0; id < 300; ++id) service.Insert(id);

  EstimateRequest request = LshSsRequest(0.5, /*trials=*/10);
  const EstimateResponse full = service.Estimate(request);
  ASSERT_EQ(full.trials, 10u);

  request.max_rel_error = 1e6;  // any 2-trial interval satisfies this
  const EstimateResponse early = service.Estimate(request);
  EXPECT_EQ(early.trials, 2u);
  EXPECT_LT(early.pairs_evaluated, full.pairs_evaluated);
}

TEST(StreamingEstimationServiceTest, MultiTableTrialsStayInFeasibleRange) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300, 45);
  StreamingEstimationService service(
      std::move(dataset), StreamOptions(2, /*cache=*/false, /*tables=*/3));
  for (VectorId id = 0; id < 250; ++id) service.Insert(id);
  const uint64_t live_pairs = uint64_t{250} * 249 / 2;
  for (double tau : {0.2, 0.5, 0.8}) {
    const EstimateResponse response =
        service.Estimate(LshSsRequest(tau, /*trials=*/6));
    EXPECT_GE(response.mean_estimate, 0.0) << tau;
    EXPECT_LE(response.mean_estimate, static_cast<double>(live_pairs))
        << tau;
  }
}

}  // namespace
}  // namespace vsj
