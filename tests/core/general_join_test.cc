#include "vsj/core/general_join.h"

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/join/brute_force_join.h"

namespace vsj {
namespace {

struct GeneralSetup {
  VectorDataset left;
  VectorDataset right;
  std::unique_ptr<SimHashFamily> family;
  std::unique_ptr<LshTable> left_table;
  std::unique_ptr<LshTable> right_table;
};

GeneralSetup MakeGeneralSetup(size_t n_left, size_t n_right, uint32_t k,
                              uint64_t seed) {
  GeneralSetup setup;
  setup.left = testing::SmallClusteredCorpus(n_left, seed);
  // Overlapping distribution: same generator, different seed, so some
  // cross-collection near-duplicates exist only by chance; add shared docs
  // by reusing the same seed for a portion.
  setup.right = testing::SmallClusteredCorpus(n_right, seed);
  setup.family = std::make_unique<SimHashFamily>(seed ^ 0x777);
  setup.left_table =
      std::make_unique<LshTable>(*setup.family, setup.left, k);
  setup.right_table =
      std::make_unique<LshTable>(*setup.family, setup.right, k);
  return setup;
}

uint64_t ExactSameKeyPairs(const LshTable& left_table,
                           const LshTable& right_table) {
  uint64_t count = 0;
  for (VectorId u = 0; u < left_table.num_vectors(); ++u) {
    for (VectorId v = 0; v < right_table.num_vectors(); ++v) {
      const uint64_t ku = left_table.BucketKey(left_table.BucketOf(u));
      const uint64_t kv = right_table.BucketKey(right_table.BucketOf(v));
      count += ku == kv ? 1 : 0;
    }
  }
  return count;
}

/// The stratum sizes N_H and N_L of one sampled estimate.
std::pair<uint64_t, uint64_t> StratumSizes(const GeneralLshSsEstimator& est) {
  Rng rng(1);
  const EstimationResult r = est.Estimate(0.5, rng);
  EXPECT_EQ(r.strata.size(), 2u);
  return {r.strata[0].size, r.strata[1].size};
}

TEST(GeneralLshSsTest, SameBucketPairCountMatchesBruteForce) {
  GeneralSetup setup = MakeGeneralSetup(120, 150, 8, 1);
  GeneralLshSsEstimator est(setup.left, setup.right, *setup.left_table,
                            *setup.right_table, SimilarityMeasure::kCosine);
  const auto [num_pairs_h, num_pairs_l] = StratumSizes(est);
  EXPECT_EQ(num_pairs_h,
            ExactSameKeyPairs(*setup.left_table, *setup.right_table));
  EXPECT_EQ(num_pairs_h + num_pairs_l, 120u * 150u);
}

TEST(GeneralLshSsTest, TauZeroReturnsTotalPairs) {
  GeneralSetup setup = MakeGeneralSetup(80, 90, 8, 2);
  GeneralLshSsEstimator est(setup.left, setup.right, *setup.left_table,
                            *setup.right_table, SimilarityMeasure::kCosine);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(est.Estimate(0.0, rng).estimate, 80.0 * 90.0);
}

TEST(GeneralLshSsTest, AccurateAtModerateThreshold) {
  GeneralSetup setup = MakeGeneralSetup(600, 600, 10, 3);
  const double true_j = static_cast<double>(BruteForceGeneralJoinSize(
      setup.left, setup.right, SimilarityMeasure::kCosine, 0.5));
  ASSERT_GT(true_j, 0.0);
  GeneralLshSsEstimator est(setup.left, setup.right, *setup.left_table,
                            *setup.right_table, SimilarityMeasure::kCosine);
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(est, {0.5}, 25, 11).front().estimates, true_j);
  EXPECT_GT(stats.mean_estimate, true_j * 0.25);
  EXPECT_LT(stats.mean_estimate, true_j * 4.0);
}

TEST(GeneralLshSsTest, EstimateWithinBounds) {
  GeneralSetup setup = MakeGeneralSetup(100, 200, 8, 4);
  GeneralLshSsEstimator est(setup.left, setup.right, *setup.left_table,
                            *setup.right_table, SimilarityMeasure::kCosine);
  for (double tau : {0.1, 0.5, 0.9}) {
    Rng rng(static_cast<uint64_t>(tau * 77) + 1);
    const EstimationResult r = est.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, 100.0 * 200.0);
  }
}

TEST(GeneralLshSsTest, EstimatesMatchParentBitForBit) {
  // Captured with %a from the general join's hand-written SampleL scale-up
  // before it moved to the shared scale-up (now StratumEstimate, read here
  // from each stratum's tally): every mode × the standard τ grid on
  // one Rng stream per mode (so the draw count is pinned too), covering
  // reliable, dampened and zero-hit stratum-L outcomes. The §5.1 defaults
  // give m_H = m_L = 600 and δ = 9; neither δ nor c_s = 0.3 is a power of
  // two, so a reordered scale-up would round differently.
  using M = DampeningMode;
  struct Row {
    DampeningMode mode;
    double tau;
    double estimate;
    double stratum_h;
    double stratum_l;
    uint64_t pairs_evaluated;
    bool guaranteed;
  };
  const Row rows[] = {
      {M::kSafeLowerBound, 0.1, 0x1.16c1dd31674c6p+16, 0x1.f7f5555555555p+9,
       0x1.12d1f286bca1bp+16, 619, true},
      {M::kSafeLowerBound, 0.2, 0x1.49992d8dcb638p+13, 0x1.f095555555555p+8,
       0x1.3a1482e320b8dp+13, 733, true},
      {M::kSafeLowerBound, 0.3, 0x1.7caaaaaaaaaabp+8, 0x1.75aaaaaaaaaabp+8,
       0x1.cp+2, 1200, false},
      {M::kSafeLowerBound, 0.4, 0x1.3baaaaaaaaaabp+8, 0x1.3aaaaaaaaaaabp+8,
       0x1p+0, 1200, false},
      {M::kSafeLowerBound, 0.5, 0x1.248aaaaaaaaabp+8, 0x1.248aaaaaaaaabp+8,
       0x0p+0, 1200, false},
      {M::kSafeLowerBound, 0.6, 0x1.46f5555555555p+8, 0x1.46f5555555555p+8,
       0x0p+0, 1200, false},
      {M::kSafeLowerBound, 0.7, 0x1.3f95555555555p+8, 0x1.3f95555555555p+8,
       0x0p+0, 1200, false},
      {M::kSafeLowerBound, 0.8, 0x1.468p+8, 0x1.448p+8, 0x1p+1, 1200, false},
      {M::kSafeLowerBound, 0.9, 0x1.3baaaaaaaaaabp+8, 0x1.3aaaaaaaaaaabp+8,
       0x1p+0, 1200, false},
      {M::kSafeLowerBound, 1.0, 0x1.1ab5555555555p+8, 0x1.1ab5555555555p+8,
       0x0p+0, 1200, false},
      {M::kFixedFactor, 0.1, 0x1.16c1dd31674c6p+16, 0x1.f7f5555555555p+9,
       0x1.12d1f286bca1bp+16, 619, true},
      {M::kFixedFactor, 0.2, 0x1.49992d8dcb638p+13, 0x1.f095555555555p+8,
       0x1.3a1482e320b8dp+13, 733, true},
      {M::kFixedFactor, 0.3, 0x1.bec0888888888p+9, 0x1.75aaaaaaaaaabp+8,
       0x1.03eb333333333p+9, 1200, false},
      {M::kFixedFactor, 0.4, 0x1.84edddddddddep+8, 0x1.3aaaaaaaaaaabp+8,
       0x1.290cccccccccdp+6, 1200, false},
      {M::kFixedFactor, 0.5, 0x1.248aaaaaaaaabp+8, 0x1.248aaaaaaaaabp+8,
       0x0p+0, 1200, false},
      {M::kFixedFactor, 0.6, 0x1.46f5555555555p+8, 0x1.46f5555555555p+8,
       0x0p+0, 1200, false},
      {M::kFixedFactor, 0.7, 0x1.3f95555555555p+8, 0x1.3f95555555555p+8,
       0x0p+0, 1200, false},
      {M::kFixedFactor, 0.8, 0x1.d906666666666p+8, 0x1.448p+8,
       0x1.290cccccccccdp+7, 1200, false},
      {M::kFixedFactor, 0.9, 0x1.84edddddddddep+8, 0x1.3aaaaaaaaaaabp+8,
       0x1.290cccccccccdp+6, 1200, false},
      {M::kFixedFactor, 1.0, 0x1.1ab5555555555p+8, 0x1.1ab5555555555p+8,
       0x0p+0, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.1, 0x1.16c1dd31674c6p+16,
       0x1.f7f5555555555p+9, 0x1.12d1f286bca1bp+16, 619, true},
      {M::kAdaptiveNlOverDelta, 0.2, 0x1.49992d8dcb638p+13,
       0x1.f095555555555p+8, 0x1.3a1482e320b8dp+13, 733, true},
      {M::kAdaptiveNlOverDelta, 0.3, 0x1.ae592f684bda2p+10,
       0x1.75aaaaaaaaaabp+8, 0x1.50ee84bda12f7p+10, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.4, 0x1.562bda12f684cp+8, 0x1.3aaaaaaaaaaabp+8,
       0x1.b812f684bda13p+4, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.5, 0x1.248aaaaaaaaabp+8, 0x1.248aaaaaaaaabp+8,
       0x0p+0, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.6, 0x1.46f5555555555p+8, 0x1.46f5555555555p+8,
       0x0p+0, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.7, 0x1.3f95555555555p+8, 0x1.3f95555555555p+8,
       0x0p+0, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.8, 0x1.b284bda12f685p+8, 0x1.448p+8,
       0x1.b812f684bda13p+6, 1200, false},
      {M::kAdaptiveNlOverDelta, 0.9, 0x1.562bda12f684cp+8, 0x1.3aaaaaaaaaaabp+8,
       0x1.b812f684bda13p+4, 1200, false},
      {M::kAdaptiveNlOverDelta, 1.0, 0x1.1ab5555555555p+8, 0x1.1ab5555555555p+8,
       0x0p+0, 1200, false},
  };
  const VectorDataset left = testing::SmallClusteredCorpus(600, 12);
  const VectorDataset right = testing::SmallClusteredCorpus(250, 12);
  const SimHashFamily family(12 ^ 0x777);
  const LshTable left_table(family, left, 8);
  const LshTable right_table(family, right, 8);
  const std::vector<double> taus = StandardThresholds();
  ASSERT_EQ(std::size(rows), 3 * taus.size());
  for (size_t m = 0; m < 3; ++m) {
    LshSsOptions options;
    options.dampening = rows[m * taus.size()].mode;
    options.dampening_factor = 0.3;
    const GeneralLshSsEstimator est(left, right, left_table, right_table,
                                    SimilarityMeasure::kCosine, options);
    const LshSsRules rules = MakeLshSsRules(options, 600);
    Rng rng(17);
    for (size_t j = 0; j < taus.size(); ++j) {
      const Row& row = rows[m * taus.size() + j];
      ASSERT_EQ(row.mode, options.dampening);
      ASSERT_EQ(row.tau, taus[j]);
      const EstimationResult r = est.Estimate(row.tau, rng);
      SCOPED_TRACE(::testing::Message() << "mode " << m << " tau=" << row.tau);
      EXPECT_EQ(r.estimate, row.estimate);
      ASSERT_EQ(r.strata.size(), 2u);
      EXPECT_EQ(StratumEstimate(r.strata[0], rules.h), row.stratum_h);
      EXPECT_EQ(StratumEstimate(r.strata[1], rules.l), row.stratum_l);
      EXPECT_EQ(r.pairs_evaluated, row.pairs_evaluated);
      EXPECT_EQ(r.guaranteed, row.guaranteed);
    }
    EXPECT_EQ(rng.Next(), 0x76aeca230dd96971ULL) << m;
  }
}

TEST(GeneralLshSsTest, SweepMatchesSingleTauOnAMovedEstimator) {
  // EstimateSweep answers every τ from one shared pass over U ⊕ V; result j
  // must equal Estimate(taus[j]) on a copy of the same stream, whatever the
  // measure and dampening. The estimator is move-constructed from a heap
  // object that is then destroyed, so the concatenated view must read
  // through halves that moved with it.
  const VectorDataset left = testing::SmallClusteredCorpus(300, 21);
  const VectorDataset right = testing::SmallClusteredCorpus(200, 21);
  const SimHashFamily simhash(21);
  const MinHashFamily minhash(21);
  std::vector<double> taus = StandardThresholds();
  taus.insert(taus.begin(), 0.0);
  taus.push_back(1.0);
  const std::pair<const LshFamily*, uint32_t> families[] = {{&simhash, 8},
                                                             {&minhash, 4}};
  for (const auto& [family, k] : families) {
    const LshTable left_table(*family, left, k);
    const LshTable right_table(*family, right, k);
    const uint64_t same_key = ExactSameKeyPairs(left_table, right_table);
    ASSERT_GT(same_key, 0u) << family->name();
    for (const DampeningMode mode :
         {DampeningMode::kSafeLowerBound, DampeningMode::kFixedFactor,
          DampeningMode::kAdaptiveNlOverDelta}) {
      LshSsOptions options;
      options.dampening = mode;
      options.dampening_factor = 0.3;
      auto original = std::make_unique<GeneralLshSsEstimator>(
          left, right, left_table, right_table, family->measure(), options);
      const GeneralLshSsEstimator est(std::move(*original));
      original.reset();
      SCOPED_TRACE(::testing::Message()
                   << family->name() << " mode " << static_cast<int>(mode));
      EXPECT_TRUE(est.SharesSweeps());
      const auto [num_pairs_h, num_pairs_l] = StratumSizes(est);
      EXPECT_EQ(num_pairs_h, same_key);
      EXPECT_EQ(num_pairs_h + num_pairs_l, 300u * 200u);

      const Rng stream(5);
      const std::vector<EstimationResult> sweep =
          est.EstimateSweep(taus, stream);
      ASSERT_EQ(sweep.size(), taus.size());
      EXPECT_EQ(sweep.front().estimate, 300.0 * 200.0);  // τ = 0
      for (size_t j = 0; j < taus.size(); ++j) {
        Rng copy = stream;
        const EstimationResult single = est.Estimate(taus[j], copy);
        SCOPED_TRACE(::testing::Message() << "tau=" << taus[j]);
        EXPECT_EQ(sweep[j].estimate, single.estimate);
        EXPECT_EQ(sweep[j].strata, single.strata);
        EXPECT_EQ(sweep[j].pairs_evaluated, single.pairs_evaluated);
        EXPECT_EQ(sweep[j].guaranteed, single.guaranteed);
      }
    }
  }
}

TEST(GeneralRandomPairSamplingTest, UnbiasedAtLowThreshold) {
  GeneralSetup setup = MakeGeneralSetup(400, 400, 8, 5);
  const double true_j = static_cast<double>(BruteForceGeneralJoinSize(
      setup.left, setup.right, SimilarityMeasure::kCosine, 0.1));
  ASSERT_GT(true_j, 0.0);
  GeneralRandomPairSampling rs(setup.left, setup.right,
                               SimilarityMeasure::kCosine, 30000);
  const ErrorStats stats = ComputeErrorStats(
      RunTrials(rs, {0.1}, 20, 13).front().estimates, true_j);
  EXPECT_NEAR(stats.mean_estimate, true_j, true_j * 0.3);
}

TEST(GeneralLshSsDeathTest, TablesMustShareK) {
  GeneralSetup setup = MakeGeneralSetup(50, 50, 6, 6);
  LshTable other_k(*setup.family, setup.right, 8);
  EXPECT_DEATH(
      GeneralLshSsEstimator(setup.left, setup.right, *setup.left_table,
                            other_k, SimilarityMeasure::kCosine),
      "CHECK");
}

}  // namespace
}  // namespace vsj
