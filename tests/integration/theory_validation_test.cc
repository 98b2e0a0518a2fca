// Empirical validation of the paper's theorems on controlled inputs.
//
// Theorem 1 (high τ): with α ≥ log n/n and β < 1/n, LSH-SS is within
// (1+ε)J with probability ≥ 1 − 2/n. Theorem 3 (low τ): with β ≥ log n/n,
// within εJ with probability ≥ 1 − 3/n. These are asymptotic and very
// conservative; we check qualitative versions with comfortable margins.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/core/median_estimator.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/eval/probability_profile.h"

namespace vsj {
namespace {

class TheoryValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = testing::MakeCosineSetup(3000, 10, 1, 61);
    truth_ = std::make_unique<GroundTruth>(
        setup_.dataset, SimilarityMeasure::kCosine, StandardThresholds());
    rows_ = ComputeProbabilityProfile(setup_.dataset, setup_.index->table(0),
                                      SimilarityMeasure::kCosine, *truth_);
  }

  const ProbabilityRow* RowAt(double tau) const {
    for (const auto& row : rows_) {
      if (std::fabs(row.tau - tau) < 1e-9) return &row;
    }
    return nullptr;
  }

  testing::CosineSetup setup_;
  std::unique_ptr<GroundTruth> truth_;
  std::vector<ProbabilityRow> rows_;
};

TEST_F(TheoryValidationTest, Lemma1SampleHConcentrates) {
  // SampleH alone: Ĵ_H concentrates around J_H = α·N_H when α ≥ log n/n.
  const LshTable& table = setup_.index->table(0);
  const TheoremThresholds limits =
      ComputeTheoremThresholds(setup_.dataset.size());
  for (double tau : {0.5, 0.7, 0.9}) {
    const ProbabilityRow* row = RowAt(tau);
    ASSERT_NE(row, nullptr);
    if (row->true_in_h == 0 || row->p_true_given_h < limits.alpha_floor) {
      continue;
    }
    LshSsEstimator est(setup_.dataset, table, SimilarityMeasure::kCosine,
                       {{.sample_size_l = 1},  // starve SampleL
                        DampeningMode::kSafeLowerBound,
                        1.0});
    const TrialSeries series = RunTrials(est, {tau}, 30, 71).front();
    // Median of Ĵ_H should be within a factor 2.5 of J_H.
    std::vector<double> h_parts = series.estimates;
    std::sort(h_parts.begin(), h_parts.end());
    const double median = h_parts[h_parts.size() / 2];
    const double j_h = static_cast<double>(row->true_in_h);
    EXPECT_GT(median, j_h / 2.5) << "tau = " << tau;
    EXPECT_LT(median, 2.5 * j_h + 3 * setup_.dataset.size())
        << "tau = " << tau;
  }
}

TEST_F(TheoryValidationTest, Theorem1FewLargeDeviationsAtHighTau) {
  // At a high threshold where the β < 1/n condition holds, large relative
  // deviations beyond (1+ε)J with ε = 1 should be rare.
  const TheoremThresholds limits =
      ComputeTheoremThresholds(setup_.dataset.size());
  const LshTable& table = setup_.index->table(0);
  for (double tau : {0.8, 0.9}) {
    const ProbabilityRow* row = RowAt(tau);
    ASSERT_NE(row, nullptr);
    if (row->join_size < 5) continue;
    if (row->p_true_given_l >= limits.beta_high_ceiling) continue;
    if (row->p_true_given_h < limits.alpha_floor) continue;

    LshSsEstimator est(setup_.dataset, table, SimilarityMeasure::kCosine);
    const TrialSeries series = RunTrials(est, {tau}, 50, 73).front();
    const double j = static_cast<double>(row->join_size);
    int violations = 0;
    for (double e : series.estimates) {
      if (std::fabs(e - j) > 2.0 * j) ++violations;  // (1+ε)J with ε=1
    }
    EXPECT_LE(violations, 10) << "tau = " << tau;
  }
}

TEST_F(TheoryValidationTest, Theorem3ReliableAtLowTau) {
  // At low τ (β ≥ log n/n), the adaptive path engages and estimates are
  // tight: mean within 50% of J.
  const TheoremThresholds limits =
      ComputeTheoremThresholds(setup_.dataset.size());
  const LshTable& table = setup_.index->table(0);
  for (double tau : {0.1, 0.2}) {
    const ProbabilityRow* row = RowAt(tau);
    ASSERT_NE(row, nullptr);
    if (row->p_true_given_l < limits.alpha_floor) continue;  // log n/n
    LshSsEstimator est(setup_.dataset, table, SimilarityMeasure::kCosine);
    const double j = static_cast<double>(row->join_size);
    const TrialSeries series = RunTrials(est, {tau}, 30, 79).front();
    const ErrorStats stats = ComputeErrorStats(series.estimates, j);
    EXPECT_NEAR(stats.mean_estimate, j, 0.5 * j) << "tau = " << tau;
    // Almost every trial should terminate via the answer-size threshold.
    EXPECT_LE(series.num_unguaranteed, 3u) << "tau = " << tau;
  }
}

TEST_F(TheoryValidationTest, Theorem2DampeningTradeoff) {
  // Larger c_s → larger (less conservative) Ĵ_L on the dampened path, with
  // the ordering c_s = 0.1 ≤ c_s = 0.5 ≤ c_s = 1.0 for identical samples.
  const LshTable& table = setup_.index->table(0);
  const double tau = 0.85;
  auto estimate_l = [&](double cs) {
    LshSsEstimator est(setup_.dataset, table, SimilarityMeasure::kCosine,
                       {{.sample_size_l = 200, .delta = 50},
                        DampeningMode::kFixedFactor,
                        cs});
    Rng rng(101);
    return est.Estimate(tau, rng);
  };
  const EstimationResult low = estimate_l(0.1);
  const EstimationResult mid = estimate_l(0.5);
  const EstimationResult full = estimate_l(1.0);
  const auto stratum_l = [&](const EstimationResult& r, double cs) {
    return StratumEstimate(
        r.strata[1],
        MakeLshSsRules({{.sample_size_l = 200, .delta = 50},
                        DampeningMode::kFixedFactor,
                        cs},
                       setup_.dataset.size())
            .l);
  };
  if (!low.guaranteed && !mid.guaranteed && !full.guaranteed) {
    EXPECT_LE(stratum_l(low, 0.1), stratum_l(mid, 0.5) + 1e-9);
    EXPECT_LE(stratum_l(mid, 0.5), stratum_l(full, 1.0) + 1e-9);
  }
}

TEST_F(TheoryValidationTest, MedianBoostsReliability) {
  // App. B.2.1: the median over ℓ tables deviates less often than a single
  // table at the same per-table sample size.
  auto setup = testing::MakeCosineSetup(1500, 10, 5, 67);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kCosine, {0.7});
  const double j = static_cast<double>(truth.JoinSize(0.7));
  if (j < 5.0) GTEST_SKIP();
  MedianEstimator median(setup.dataset, *setup.index,
                         SimilarityMeasure::kCosine);
  LshSsEstimator single(setup.dataset, setup.index->table(0),
                        SimilarityMeasure::kCosine);
  auto count_large = [&](const JoinSizeEstimator& est) {
    const TrialSeries series = RunTrials(est, {0.7}, 30, 83).front();
    int large = 0;
    for (double e : series.estimates) {
      if (e > 3.0 * j || e < j / 3.0) ++large;
    }
    return large;
  };
  EXPECT_LE(count_large(median), count_large(single) + 2);
}

}  // namespace
}  // namespace vsj
