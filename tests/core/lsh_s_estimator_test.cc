#include "vsj/core/lsh_s_estimator.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/eval/experiment.h"

namespace vsj {
namespace {

TEST(LshSEstimatorTest, TauZeroReturnsM) {
  auto setup = testing::MakeCosineSetup(300, 8);
  LshSEstimator est(setup.dataset, *setup.family, setup.index->table(0));
  Rng rng(1);
  EXPECT_DOUBLE_EQ(est.Estimate(0.0, rng).estimate,
                   static_cast<double>(setup.dataset.NumPairs()));
}

TEST(LshSEstimatorTest, EstimateWithinBounds) {
  auto setup = testing::MakeCosineSetup(400, 8);
  LshSEstimator est(setup.dataset, *setup.family, setup.index->table(0));
  for (double tau : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    Rng rng(static_cast<uint64_t>(tau * 100));
    const EstimationResult r = est.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, static_cast<double>(setup.dataset.NumPairs()));
  }
}

TEST(LshSEstimatorTest, SampleSizeDefaultsToN) {
  auto setup = testing::MakeCosineSetup(250, 8);
  LshSEstimator est(setup.dataset, *setup.family, setup.index->table(0));
  Rng rng(2);
  EXPECT_EQ(est.Estimate(0.5, rng).pairs_evaluated, setup.dataset.size());
}

TEST(LshSEstimatorTest, ReasonableAtLowThresholdWithJaccard) {
  // With MinHash (exact Def. 3) and plentiful true pairs, LSH-S should land
  // within a factor ~2 of the truth at τ = 0.2.
  auto setup = testing::MakeJaccardSetup(800, 4);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kJaccard, {0.2});
  const double true_j = static_cast<double>(truth.JoinSize(0.2));
  ASSERT_GT(true_j, 0.0);
  LshSEstimator est(setup.dataset, *setup.family, setup.index->table(0),
                    {.sample_size = 20000});
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(est, {0.2}, 20, 3).front().estimates, true_j);
  EXPECT_GT(stats.mean_estimate, true_j / 3.0);
  EXPECT_LT(stats.mean_estimate, true_j * 3.0);
}

TEST(LshSEstimatorTest, FlagsUnreliableWhenNoTruePairsSampled) {
  // At τ = 0.999 virtually no sampled pair is true: the S_T fallback marks
  // the result as not guaranteed.
  auto setup = testing::MakeCosineSetup(400, 8, 1, 17);
  LshSEstimator est(setup.dataset, *setup.family, setup.index->table(0),
                    {.sample_size = 50});
  int unguaranteed = 0;
  for (int t = 0; t < 20; ++t) {
    Rng rng(t);
    if (!est.Estimate(0.999, rng).guaranteed) ++unguaranteed;
  }
  EXPECT_GT(unguaranteed, 15);
}

TEST(LshSEstimatorDeathTest, TableMustMatchDataset) {
  auto setup = testing::MakeCosineSetup(100, 4);
  VectorDataset other = testing::SmallClusteredCorpus(50);
  EXPECT_DEATH(
      LshSEstimator(other, *setup.family, setup.index->table(0)),
      "CHECK");
}

}  // namespace
}  // namespace vsj
