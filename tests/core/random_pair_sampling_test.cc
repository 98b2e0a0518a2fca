#include "vsj/core/random_pair_sampling.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/join/brute_force_join.h"

namespace vsj {
namespace {

/// The draws of one RS(pop) estimate: its one stratum holds all M pairs.
uint64_t SampleSize(const RandomPairSampling& rs, const VectorDataset& data) {
  Rng rng(1);
  const EstimationResult r = rs.Estimate(0.5, rng);
  EXPECT_EQ(r.strata.size(), 1u);
  EXPECT_EQ(r.strata[0].size, data.NumPairs());
  return r.strata[0].draws;
}

TEST(RandomPairSamplingTest, DefaultSampleSizeIs1_5N) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine);
  EXPECT_EQ(SampleSize(rs, dataset), 600u);
}

TEST(RandomPairSamplingTest, ExplicitSampleSizeWins) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine, {.sample_size = 123});
  EXPECT_EQ(SampleSize(rs, dataset), 123u);
}

TEST(RandomPairSamplingTest, TauZeroEstimatesM) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine);
  Rng rng(1);
  const EstimationResult r = rs.Estimate(0.0, rng);
  EXPECT_DOUBLE_EQ(r.estimate, static_cast<double>(dataset.NumPairs()));
}

TEST(RandomPairSamplingTest, UnbiasedAtLowThreshold) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 7);
  const double true_j = static_cast<double>(
      BruteForceJoinSize(dataset, SimilarityMeasure::kCosine, 0.1));
  ASSERT_GT(true_j, 0.0);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine,
                        {.sample_size = 20000});
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(rs, {0.1}, 30, 99).front().estimates, true_j);
  EXPECT_NEAR(stats.mean_estimate, true_j, true_j * 0.2);
}

TEST(RandomPairSamplingTest, EstimateWithinBounds) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300, 5);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine);
  Rng rng(3);
  for (double tau : {0.1, 0.5, 0.9}) {
    const EstimationResult r = rs.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, static_cast<double>(dataset.NumPairs()));
    EXPECT_EQ(r.pairs_evaluated, 450u);  // 1.5 n
  }
}

TEST(RandomPairSamplingTest, HighThresholdUsuallyMissesRareTruePairs) {
  // The motivating failure: with tiny selectivity, most trials return 0.
  VectorDataset dataset;
  // 2 identical + 498 mutually dissimilar vectors.
  dataset.Add(SparseVector::FromDims({1, 2, 3}));
  dataset.Add(SparseVector::FromDims({1, 2, 3}));
  for (int i = 0; i < 498; ++i) {
    dataset.Add(SparseVector::FromDims(
        {static_cast<DimId>(10 + 3 * i), static_cast<DimId>(11 + 3 * i)}));
  }
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine,
                        {.sample_size = 100});
  int zero_estimates = 0;
  for (int t = 0; t < 50; ++t) {
    Rng rng(t);
    if (rs.Estimate(0.9, rng).estimate == 0.0) ++zero_estimates;
  }
  EXPECT_GT(zero_estimates, 40);  // selectivity ≈ 1/124750 per sample
}

TEST(RandomPairSamplingDeathTest, RequiresTwoVectors) {
  VectorDataset dataset;
  dataset.Add(SparseVector::FromDims({1}));
  EXPECT_DEATH(RandomPairSampling(dataset, SimilarityMeasure::kCosine),
               "CHECK");
}

}  // namespace
}  // namespace vsj
