#include "vsj/core/cross_sampling.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/join/brute_force_join.h"

namespace vsj {
namespace {

TEST(CrossSamplingTest, RecordCountIsSqrtOfBudget) {
  VectorDataset dataset = testing::SmallClusteredCorpus(400);
  CrossSampling cs(dataset, SimilarityMeasure::kCosine,
                   {.sample_size = 900});
  EXPECT_EQ(cs.num_records(), 30u);
}

TEST(CrossSamplingTest, RecordCountCappedByDatasetSize) {
  VectorDataset dataset = testing::SmallClusteredCorpus(20);
  CrossSampling cs(dataset, SimilarityMeasure::kCosine,
                   {.sample_size = 100000});
  EXPECT_EQ(cs.num_records(), 20u);
}

TEST(CrossSamplingTest, TauZeroEstimatesM) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200);
  CrossSampling cs(dataset, SimilarityMeasure::kCosine);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(cs.Estimate(0.0, rng).estimate,
                   static_cast<double>(dataset.NumPairs()));
}

TEST(CrossSamplingTest, ApproximatelyUnbiasedAtLowThreshold) {
  VectorDataset dataset = testing::SmallClusteredCorpus(500, 9);
  const double true_j = static_cast<double>(
      BruteForceJoinSize(dataset, SimilarityMeasure::kCosine, 0.1));
  ASSERT_GT(true_j, 0.0);
  CrossSampling cs(dataset, SimilarityMeasure::kCosine,
                   {.sample_size = 40000});
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(cs, {0.1}, 30, 7).front().estimates, true_j);
  EXPECT_NEAR(stats.mean_estimate, true_j, true_j * 0.3);
}

TEST(CrossSamplingTest, PairsEvaluatedMatchesRecordChoose2) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300);
  CrossSampling cs(dataset, SimilarityMeasure::kCosine,
                   {.sample_size = 400});
  Rng rng(5);
  const EstimationResult r = cs.Estimate(0.5, rng);
  const uint64_t records = cs.num_records();
  EXPECT_EQ(r.pairs_evaluated, records * (records - 1) / 2);
}

}  // namespace
}  // namespace vsj
