#include "vsj/core/degree_sampling.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/join/brute_force_join.h"

namespace vsj {
namespace {

TEST(DegreeSamplingTest, DefaultBudgetsFollowSqrtNLogN) {
  VectorDataset dataset = testing::SmallClusteredCorpus(1024, 1);
  DegreeSamplingEstimator est(dataset, SimilarityMeasure::kCosine);
  // √(1024 · 10) ≈ 102.
  EXPECT_NEAR(static_cast<double>(est.num_vertices()), 102.0, 2.0);
  EXPECT_EQ(est.refined_probes(), 4 * est.coarse_probes());
}

TEST(DegreeSamplingTest, TauZeroReturnsM) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 2);
  DegreeSamplingEstimator est(dataset, SimilarityMeasure::kCosine);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(est.Estimate(0.0, rng).estimate,
                   static_cast<double>(dataset.NumPairs()));
}

TEST(DegreeSamplingTest, ReasonableAtLowThreshold) {
  VectorDataset dataset = testing::SmallClusteredCorpus(600, 3);
  const double true_j = static_cast<double>(
      BruteForceJoinSize(dataset, SimilarityMeasure::kCosine, 0.1));
  ASSERT_GT(true_j, 0.0);
  DegreeSamplingEstimator est(dataset, SimilarityMeasure::kCosine,
                              {.num_vertices = 200,
                               .coarse_probes = 100,
                               .refined_probes = 400});
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(est, {0.1}, 20, 5).front().estimates, true_j);
  EXPECT_NEAR(stats.mean_estimate, true_j, true_j * 0.4);
}

TEST(DegreeSamplingTest, CollapsesToZeroAtHighThreshold) {
  // The failure mode the paper predicts for bifocal-style estimation: at
  // high thresholds no sampled vertex looks dense and Ĵ = 0.
  VectorDataset dataset = testing::SmallClusteredCorpus(800, 7);
  DegreeSamplingEstimator est(dataset, SimilarityMeasure::kCosine);
  int zero_unguaranteed = 0;
  for (int t = 0; t < 20; ++t) {
    Rng rng(t);
    const EstimationResult r = est.Estimate(0.95, rng);
    if (r.estimate == 0.0 && !r.guaranteed) ++zero_unguaranteed;
  }
  EXPECT_GE(zero_unguaranteed, 12);
}

TEST(DegreeSamplingTest, EstimateWithinBounds) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300, 9);
  DegreeSamplingEstimator est(dataset, SimilarityMeasure::kCosine);
  for (double tau : {0.1, 0.5, 0.9}) {
    Rng rng(static_cast<uint64_t>(tau * 31) + 1);
    const EstimationResult r = est.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, static_cast<double>(dataset.NumPairs()));
    EXPECT_GT(r.pairs_evaluated, 0u);
  }
}

}  // namespace
}  // namespace vsj
