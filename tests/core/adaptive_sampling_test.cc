#include "vsj/core/adaptive_sampling.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/join/brute_force_join.h"

namespace vsj {
namespace {

TEST(AdaptiveSamplingEstimatorTest, ReliableAtLowThreshold) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 3);
  const double true_j = static_cast<double>(
      BruteForceJoinSize(dataset, SimilarityMeasure::kCosine, 0.1));
  ASSERT_GT(true_j, 0.0);
  AdaptiveSamplingEstimator est(dataset, SimilarityMeasure::kCosine,
                                {.delta = 50, .max_samples = 100000});
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(est, {0.1}, 20, 11).front().estimates, true_j);
  EXPECT_NEAR(stats.mean_estimate, true_j, true_j * 0.4);
}

TEST(AdaptiveSamplingEstimatorTest, FlagsUnreliableAtHighThreshold) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 5);
  AdaptiveSamplingEstimator est(dataset, SimilarityMeasure::kCosine,
                                {.delta = 64, .max_samples = 200});
  Rng rng(1);
  const EstimationResult r = est.Estimate(0.95, rng);
  EXPECT_FALSE(r.guaranteed);
  EXPECT_LE(r.pairs_evaluated, 200u);
}

TEST(AdaptiveSamplingEstimatorTest, DefaultsDeriveFromN) {
  VectorDataset dataset = testing::SmallClusteredCorpus(1024, 7);
  AdaptiveSamplingEstimator est(dataset, SimilarityMeasure::kCosine);
  Rng rng(2);
  const EstimationResult r = est.Estimate(0.99, rng);
  // max_samples defaults to n = 1024.
  EXPECT_LE(r.pairs_evaluated, 1024u);
}

TEST(AdaptiveSamplingEstimatorTest, ReportsOneAdaptiveStratumOfAllPairs) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400, 5);
  AdaptiveSamplingEstimator est(dataset, SimilarityMeasure::kCosine,
                                {.delta = 64, .max_samples = 200});
  Rng rng(1);
  const EstimationResult r = est.Estimate(0.95, rng);
  ASSERT_EQ(r.strata.size(), 1u);
  EXPECT_EQ(r.strata[0].size, dataset.NumPairs());
  EXPECT_EQ(r.strata[0].draws, r.pairs_evaluated);
  EXPECT_EQ(r.strata[0].reached == 1, r.guaranteed);
}

}  // namespace
}  // namespace vsj
