#include "vsj/core/virtual_bucket_estimator.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"

namespace vsj {
namespace {

/// |∪_t SH_t| as the estimator stratifies it: stratum H's size.
uint64_t VirtualSameBucketPairs(const VirtualBucketEstimator& est) {
  Rng rng(1);
  return est.Estimate(0.5, rng).strata[0].size;
}

uint64_t ExactVirtualPairs(const LshIndex& index, size_t n) {
  uint64_t count = 0;
  for (VectorId u = 0; u < n; ++u) {
    for (VectorId v = u + 1; v < n; ++v) {
      count += index.SameBucketInAnyTable(u, v) ? 1 : 0;
    }
  }
  return count;
}

TEST(VirtualBucketEstimatorTest, VirtualPairCountMatchesBruteForce) {
  auto setup = testing::MakeCosineSetup(200, 6, 3);
  VirtualBucketEstimator est(setup.dataset, *setup.index,
                             SimilarityMeasure::kCosine);
  EXPECT_EQ(VirtualSameBucketPairs(est),
            ExactVirtualPairs(*setup.index, setup.dataset.size()));
}

TEST(VirtualBucketEstimatorTest, VirtualStratumIsSupersetOfEachTable) {
  auto setup = testing::MakeCosineSetup(300, 8, 4);
  VirtualBucketEstimator est(setup.dataset, *setup.index,
                             SimilarityMeasure::kCosine);
  for (uint32_t t = 0; t < setup.index->num_tables(); ++t) {
    EXPECT_GE(VirtualSameBucketPairs(est),
              setup.index->table(t).NumSameBucketPairs());
  }
}

TEST(VirtualBucketEstimatorTest, TauZeroReturnsM) {
  auto setup = testing::MakeCosineSetup(200, 6, 2);
  VirtualBucketEstimator est(setup.dataset, *setup.index,
                             SimilarityMeasure::kCosine);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(est.Estimate(0.0, rng).estimate,
                   static_cast<double>(setup.dataset.NumPairs()));
}

TEST(VirtualBucketEstimatorTest, EstimateWithinBounds) {
  auto setup = testing::MakeCosineSetup(300, 8, 3);
  VirtualBucketEstimator est(setup.dataset, *setup.index,
                             SimilarityMeasure::kCosine);
  for (double tau : {0.1, 0.5, 0.9}) {
    Rng rng(static_cast<uint64_t>(tau * 100) + 1);
    const EstimationResult r = est.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, static_cast<double>(setup.dataset.NumPairs()));
  }
}

TEST(VirtualBucketEstimatorTest, ReasonableAccuracyAtModerateTau) {
  auto setup = testing::MakeCosineSetup(1000, 12, 4, 41);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.7});
  const double true_j = static_cast<double>(truth.JoinSize(0.7));
  if (true_j == 0.0) GTEST_SKIP();
  VirtualBucketEstimator est(setup.dataset, *setup.index,
                             SimilarityMeasure::kCosine);
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(est, {0.7}, 25, 3).front().estimates, true_j);
  EXPECT_GT(stats.mean_estimate, true_j * 0.2);
  EXPECT_LT(stats.mean_estimate, true_j * 5.0);
}

TEST(VirtualBucketEstimatorTest, LargerKBenefitsFromVirtualBuckets) {
  // The motivating scenario of App. B.2.1: with an overly selective g
  // (large k), the union stratum H catches more true pairs than any single
  // table's stratum.
  auto setup = testing::MakeCosineSetup(500, 24, 5, 43);
  VirtualBucketEstimator virt(setup.dataset, *setup.index,
                              SimilarityMeasure::kCosine);
  EXPECT_GT(VirtualSameBucketPairs(virt),
            setup.index->table(0).NumSameBucketPairs());
}

}  // namespace
}  // namespace vsj
