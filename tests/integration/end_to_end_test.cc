// Cross-module integration: generator → LSH index → estimators → harness,
// compared against exact joins, on both cosine/SimHash and Jaccard/MinHash.

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/eval/probability_profile.h"
#include "vsj/join/all_pairs_join.h"

namespace vsj {
namespace {

TEST(EndToEndTest, FullPipelineCosine) {
  auto setup = testing::MakeCosineSetup(1000, 10, 2, 51);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine,
                    StandardThresholds());

  EstimatorContext context;
  context.dataset = setup.dataset;
  context.index = setup.index.get();
  context.measure = SimilarityMeasure::kCosine;

  for (const std::string& name : HeadlineEstimatorNames()) {
    auto estimator = CreateEstimator(name, context);
    for (double tau : {0.2, 0.5, 0.8}) {
      const double true_j = static_cast<double>(truth.JoinSize(tau));
      if (true_j == 0.0) continue;
      const TrialSeries series = RunTrials(*estimator, {tau}, 10, 17).front();
      for (double e : series.estimates) {
        EXPECT_GE(e, 0.0) << name;
        EXPECT_LE(e, static_cast<double>(setup.dataset.NumPairs())) << name;
      }
    }
  }
}

TEST(EndToEndTest, LshSsBeatsRandomSamplingAtHighThreshold) {
  // The paper's core claim, end to end: at high τ LSH-SS has smaller
  // absolute relative error than RS(pop) at comparable sample size.
  auto setup = testing::MakeCosineSetup(2000, 10, 1, 53);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.8});
  const double true_j = static_cast<double>(truth.JoinSize(0.8));
  if (true_j < 3.0) GTEST_SKIP() << "degenerate seed";

  EstimatorContext context;
  context.dataset = setup.dataset;
  context.index = setup.index.get();
  auto lsh_ss = CreateEstimator("LSH-SS", context);
  auto rs = CreateEstimator("RS(pop)", context);

  const ErrorStats lsh_stats = ComputeErrorStats(
      RunTrials(*lsh_ss, {0.8}, 40, 3).front().estimates, true_j);
  const ErrorStats rs_stats = ComputeErrorStats(
      RunTrials(*rs, {0.8}, 40, 3).front().estimates, true_j);
  EXPECT_LT(lsh_stats.mean_absolute_relative_error,
            rs_stats.mean_absolute_relative_error);
}

TEST(EndToEndTest, JaccardPipelineWithExactDef3Family) {
  auto setup = testing::MakeJaccardSetup(800, 6, 1, 55);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kJaccard, {0.3, 0.7});

  EstimatorContext context;
  context.dataset = setup.dataset;
  context.index = setup.index.get();
  context.measure = SimilarityMeasure::kJaccard;
  // Budget large enough for the reliable SampleL regime at this small n.
  context.lsh_ss.sample_size_l = 50000;
  context.lsh_ss.delta = 5;

  auto lsh_ss = CreateEstimator("LSH-SS", context);
  for (double tau : {0.3, 0.7}) {
    const double true_j = static_cast<double>(truth.JoinSize(tau));
    if (true_j == 0.0) continue;
    const ErrorStats stats = ComputeErrorStats(
        RunTrials(*lsh_ss, {tau}, 25, 5).front().estimates, true_j);
    EXPECT_GT(stats.mean_estimate, true_j * 0.2) << "tau = " << tau;
    EXPECT_LT(stats.mean_estimate, true_j * 5.0) << "tau = " << tau;
  }
}

TEST(EndToEndTest, EstimatePredictsAllPairsJoinCost) {
  // The query-optimizer use case: the estimate should predict the actual
  // result size of the exact All-Pairs join within an order of magnitude.
  auto setup = testing::MakeCosineSetup(1200, 10, 1, 57);
  EstimatorContext context;
  context.dataset = setup.dataset;
  context.index = setup.index.get();
  auto estimator = CreateEstimator("LSH-SS", context);

  const double tau = 0.6;
  Rng rng(1);
  const double estimate = estimator->Estimate(tau, rng).estimate;
  const uint64_t actual = AllPairsJoinSize(setup.dataset, tau);
  if (actual >= 20) {
    EXPECT_GT(estimate, actual / 10.0);
    EXPECT_LT(estimate, actual * 10.0);
  }
}

TEST(EndToEndTest, ProbabilityProfileSupportsTheoremAssumptions) {
  // On a clustered corpus the assumptions of §5.2 should hold at τ = 0.8:
  // α well above log n/n.
  auto setup = testing::MakeCosineSetup(1500, 10, 1, 59);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.8});
  const auto rows = ComputeProbabilityProfile(
      setup.dataset, setup.index->table(0), SimilarityMeasure::kCosine,
      truth);
  const TheoremThresholds limits =
      ComputeTheoremThresholds(setup.dataset.size());
  ASSERT_EQ(rows.size(), 1u);
  if (rows[0].join_size > 0) {
    EXPECT_GE(rows[0].p_true_given_h, limits.alpha_floor);
  }
}

}  // namespace
}  // namespace vsj
