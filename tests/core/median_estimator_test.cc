#include "vsj/core/median_estimator.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"

namespace vsj {
namespace {

TEST(MedianEstimatorTest, UsesAllTables) {
  auto setup = testing::MakeCosineSetup(300, 8, 5);
  MedianEstimator est(setup.dataset, *setup.index, SimilarityMeasure::kCosine);
  EXPECT_EQ(est.num_tables(), 5u);
}

TEST(MedianEstimatorTest, SingleTableMatchesLshSsDistribution) {
  auto setup = testing::MakeCosineSetup(400, 8, 1);
  MedianEstimator median(setup.dataset, *setup.index,
                         SimilarityMeasure::kCosine);
  LshSsEstimator direct(setup.dataset, setup.index->table(0),
                        SimilarityMeasure::kCosine);
  // Identical RNG stream → identical estimate.
  Rng a(42), b(42);
  EXPECT_DOUBLE_EQ(median.Estimate(0.5, a).estimate,
                   direct.Estimate(0.5, b).estimate);
}

TEST(MedianEstimatorTest, PairsEvaluatedSumAcrossTables) {
  auto setup = testing::MakeCosineSetup(300, 8, 3);
  MedianEstimator est(setup.dataset, *setup.index,
                      SimilarityMeasure::kCosine);
  LshSsEstimator single(setup.dataset, setup.index->table(0),
                        SimilarityMeasure::kCosine);
  Rng a(1), b(1);
  const uint64_t multi = est.Estimate(0.5, a).pairs_evaluated;
  const uint64_t one = single.Estimate(0.5, b).pairs_evaluated;
  EXPECT_GT(multi, one);  // roughly 3× in expectation
}

TEST(MedianEstimatorTest, MedianReducesSpreadVersusSingleTable) {
  auto setup = testing::MakeCosineSetup(1200, 10, 5, 31);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.8});
  const double true_j = static_cast<double>(truth.JoinSize(0.8));
  if (true_j == 0.0) GTEST_SKIP();
  MedianEstimator median(setup.dataset, *setup.index,
                         SimilarityMeasure::kCosine);
  LshSsEstimator single(setup.dataset, setup.index->table(0),
                        SimilarityMeasure::kCosine);
  const ErrorStats median_stats = ComputeErrorStats(
      RunTrials(median, {0.8}, 25, 7).front().estimates, true_j);
  const ErrorStats single_stats = ComputeErrorStats(
      RunTrials(single, {0.8}, 25, 7).front().estimates, true_j);
  // The ℓ-fold sample gives the median estimator no worse spread; allow
  // generous slack since both are already tight.
  EXPECT_LE(median_stats.std_dev, single_stats.std_dev * 1.5 + 1.0);
}

TEST(MedianEstimatorTest, EstimateWithinBounds) {
  auto setup = testing::MakeCosineSetup(300, 8, 4);
  MedianEstimator est(setup.dataset, *setup.index,
                      SimilarityMeasure::kCosine);
  for (double tau : {0.2, 0.6, 0.9}) {
    Rng rng(static_cast<uint64_t>(tau * 1000));
    const EstimationResult r = est.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, static_cast<double>(setup.dataset.NumPairs()));
  }
}

}  // namespace
}  // namespace vsj
