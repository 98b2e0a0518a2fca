#include "vsj/core/lsh_ss_estimator.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"

namespace vsj {
namespace {

TEST(LshSsEstimatorTest, DefaultsFollowPaper) {
  auto setup = testing::MakeCosineSetup(1024, 10);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  Rng rng(1);
  const EstimationResult r = est.Estimate(0.99, rng);
  ASSERT_EQ(r.strata.size(), 2u);
  EXPECT_EQ(r.strata[0].size, setup.index->table(0).NumSameBucketPairs());
  EXPECT_EQ(r.strata[0].size + r.strata[1].size, setup.dataset.NumPairs());
  EXPECT_EQ(r.strata[0].draws, 1024u);  // m_H = n
  // δ is missed at τ = 0.99, so SampleL spends its whole budget m_L = n.
  EXPECT_EQ(r.strata[1].reached, 0u);
  EXPECT_EQ(r.strata[1].draws, 1024u);
  EXPECT_EQ(est.delta(), 10u);  // log2(1024)
  EXPECT_EQ(est.name(), "LSH-SS");
}

TEST(LshSsEstimatorTest, DampenedVariantIsNamedD) {
  auto setup = testing::MakeCosineSetup(256, 10);
  LshSsEstimator est(
      setup.dataset, setup.index->table(0), SimilarityMeasure::kCosine,
      {{}, DampeningMode::kAdaptiveNlOverDelta, 1.0});
  EXPECT_EQ(est.name(), "LSH-SS(D)");
}

TEST(LshSsEstimatorTest, TauZeroReturnsM) {
  auto setup = testing::MakeCosineSetup(300, 10);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(est.Estimate(0.0, rng).estimate,
                   static_cast<double>(setup.dataset.NumPairs()));
}

TEST(LshSsEstimatorTest, StratumEstimatesSumToTotal) {
  auto setup = testing::MakeCosineSetup(500, 10);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  Rng rng(2);
  const EstimationResult r = est.Estimate(0.5, rng);
  const LshSsRules rules = MakeLshSsRules({}, setup.dataset.size());
  EXPECT_NEAR(r.estimate,
              StratumEstimate(r.strata[0], rules.h) +
                  StratumEstimate(r.strata[1], rules.l),
              1e-9);
}

TEST(LshSsEstimatorTest, AccurateAcrossThresholdsWithAmpleBudget) {
  // The headline property: decent accuracy at low AND high thresholds, when
  // the sample budget puts SampleL in the reliable (Theorem 3) regime. At
  // default budgets the small-n grey area underestimates conservatively —
  // exactly the paper's Figure 2(b) behavior — which the safe-lower-bound
  // tests below cover.
  auto setup = testing::MakeCosineSetup(1500, 10, 1, 21);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine,
                    {0.2, 0.5, 0.8});
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine,
                     {{.sample_size_h = 4000,
                       .sample_size_l = 100000,
                       .delta = 5},
                      DampeningMode::kSafeLowerBound,
                      1.0});
  for (double tau : {0.2, 0.5, 0.8}) {
    const double true_j = static_cast<double>(truth.JoinSize(tau));
    ASSERT_GT(true_j, 0.0) << "tau = " << tau;
    const ErrorStats stats = ComputeErrorStats(
        RunTrials(est, {tau}, 30, 5).front().estimates, true_j);
    EXPECT_GT(stats.mean_estimate, true_j * 0.3) << "tau = " << tau;
    EXPECT_LT(stats.mean_estimate, true_j * 3.0) << "tau = " << tau;
  }
}

TEST(LshSsEstimatorTest, GreyAreaUnderestimatesConservatively) {
  // With the default m_L = n budget at small n, mid-τ thresholds fall into
  // the paper's "grey area": the safe lower bound underestimates rather
  // than fluctuating upward (§5.1.2).
  auto setup = testing::MakeCosineSetup(1500, 10, 1, 21);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.5});
  const double true_j = static_cast<double>(truth.JoinSize(0.5));
  ASSERT_GT(true_j, 0.0);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(est, {0.5}, 30, 5).front().estimates, true_j);
  EXPECT_LT(stats.mean_estimate, true_j * 3.0);
  EXPECT_LE(stats.num_big_overestimates, 1u);
}

TEST(LshSsEstimatorTest, RarelyOverestimatesBadly) {
  // Theorem 1's practical upshot (§6.2): LSH-SS hardly overestimates.
  auto setup = testing::MakeCosineSetup(1000, 10, 1, 23);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.9});
  const double true_j = static_cast<double>(truth.JoinSize(0.9));
  if (true_j == 0.0) GTEST_SKIP() << "no true pairs at 0.9 for this seed";
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  const TrialSeries series = RunTrials(est, {0.9}, 40, 9).front();
  int big_over = 0;
  for (double e : series.estimates) big_over += e > 10.0 * true_j ? 1 : 0;
  EXPECT_LE(big_over, 2);
}

TEST(LshSsEstimatorTest, SafeLowerBoundNeverScalesUpUnreliably) {
  // Force the safe-lower-bound path with a tiny m_L: Ĵ_L ≤ δ.
  auto setup = testing::MakeCosineSetup(600, 10, 1, 25);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine,
                     {{.sample_size_l = 20, .delta = 10},
                      DampeningMode::kSafeLowerBound,
                      1.0});
  Rng rng(3);
  const EstimationResult r = est.Estimate(0.95, rng);
  if (!r.guaranteed) {
    const LshSsRules rules =
        MakeLshSsRules({{.sample_size_l = 20, .delta = 10}}, 600);
    EXPECT_LE(StratumEstimate(r.strata[1], rules.l), 10.0);
  }
}

TEST(LshSsEstimatorTest, DampenedScaleUpBetweenSafeAndFull) {
  auto setup = testing::MakeCosineSetup(600, 10, 1, 27);
  const LshTable& table = setup.index->table(0);
  LshSsOptions base{{.sample_size_l = 50, .delta = 30},
                    DampeningMode::kSafeLowerBound,
                    1.0};

  LshSsOptions safe = base;
  safe.dampening = DampeningMode::kSafeLowerBound;
  LshSsOptions damp = base;
  damp.dampening = DampeningMode::kFixedFactor;
  damp.dampening_factor = 0.5;

  LshSsEstimator est_safe(setup.dataset, table, SimilarityMeasure::kCosine,
                          safe);
  LshSsEstimator est_damp(setup.dataset, table, SimilarityMeasure::kCosine,
                          damp);
  // Same RNG seed → same samples → comparable stratum L estimates.
  Rng rng_a(7), rng_b(7);
  const EstimationResult r_safe = est_safe.Estimate(0.6, rng_a);
  const EstimationResult r_damp = est_damp.Estimate(0.6, rng_b);
  ASSERT_EQ(r_safe.strata, r_damp.strata);
  const double safe_l =
      StratumEstimate(r_safe.strata[1], MakeLshSsRules(safe, 600).l);
  const double damp_l =
      StratumEstimate(r_damp.strata[1], MakeLshSsRules(damp, 600).l);
  if (!r_safe.guaranteed && safe_l > 0.0) {
    EXPECT_GE(damp_l, safe_l);
    // c_s = 0.5 halves the full scale-up N_L/m_L.
    const double full = safe_l / 50.0 *
                        static_cast<double>(table.NumCrossBucketPairs());
    EXPECT_NEAR(damp_l, 0.5 * full, full * 1e-9);
  }
}

TEST(LshSsEstimatorTest, EstimateClampedToM) {
  auto setup = testing::MakeCosineSetup(300, 10);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  for (double tau : {0.1, 0.5, 0.9}) {
    Rng rng(static_cast<uint64_t>(tau * 10));
    const EstimationResult r = est.Estimate(tau, rng);
    EXPECT_LE(r.estimate, static_cast<double>(setup.dataset.NumPairs()));
    EXPECT_GE(r.estimate, 0.0);
  }
}

TEST(LshSsEstimatorDeathTest, RejectsBadDampeningFactor) {
  auto setup = testing::MakeCosineSetup(100, 6);
  EXPECT_DEATH(
      LshSsEstimator(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine,
                     {{}, DampeningMode::kFixedFactor, 1.5}),
      "c_s");
}

// Property sweep: estimates stay within [0, M] for many (seed, τ) combos.
class LshSsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LshSsPropertyTest, EstimateAlwaysFeasible) {
  const auto [seed, tau] = GetParam();
  auto setup = testing::MakeCosineSetup(400, 10, 1, seed);
  LshSsEstimator est(setup.dataset, setup.index->table(0),
                     SimilarityMeasure::kCosine);
  Rng rng(seed * 7919);
  const EstimationResult r = est.Estimate(tau, rng);
  EXPECT_GE(r.estimate, 0.0);
  EXPECT_LE(r.estimate, static_cast<double>(setup.dataset.NumPairs()));
  EXPECT_GT(r.pairs_evaluated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, LshSsPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.1, 0.4, 0.7, 0.95)));

}  // namespace
}  // namespace vsj
