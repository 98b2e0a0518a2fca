#include "vsj/core/lattice_counting.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/eval/ground_truth.h"

namespace vsj {
namespace {

TEST(LatticeCountingTest, MomentsAreDecreasing) {
  // M_t = Σ p^t with p ∈ [0, 1] is non-increasing in t.
  auto setup = testing::MakeJaccardSetup(400, 6);
  LatticeCountingEstimator lc(setup.dataset, *setup.family,
                              {.signature_length = 16});
  const auto& moments = lc.moments();
  ASSERT_GE(moments.size(), 2u);
  for (size_t t = 1; t < moments.size(); ++t) {
    EXPECT_LE(moments[t], moments[t - 1] + 1e-9);
  }
}

TEST(LatticeCountingTest, FirstMomentMatchesExpectation) {
  // E[M_1] = Σ_pairs jaccard(u, v) for MinHash; compare against the exact
  // sum on a small corpus.
  VectorDataset dataset = testing::SmallClusteredCorpus(250, 3);
  double exact = 0.0;
  for (VectorId i = 0; i < dataset.size(); ++i) {
    for (VectorId j = i + 1; j < dataset.size(); ++j) {
      exact += JaccardSimilarity(dataset[i], dataset[j]);
    }
  }
  MinHashFamily family(4);
  LatticeCountingEstimator lc(dataset, family, {.signature_length = 48});
  EXPECT_NEAR(lc.moments()[0], exact, exact * 0.25 + 10.0);
}

TEST(LatticeCountingTest, EstimateMonotoneInTau) {
  auto setup = testing::MakeJaccardSetup(300, 6);
  LatticeCountingEstimator lc(setup.dataset, *setup.family, {});
  Rng rng(1);
  double prev = lc.Estimate(0.05, rng).estimate;
  for (double tau = 0.1; tau <= 1.0; tau += 0.1) {
    const double est = lc.Estimate(tau, rng).estimate;
    EXPECT_LE(est, prev + 1e-6);
    prev = est;
  }
}

TEST(LatticeCountingTest, TauZeroReturnsM) {
  auto setup = testing::MakeJaccardSetup(200, 6);
  LatticeCountingEstimator lc(setup.dataset, *setup.family, {});
  Rng rng(2);
  EXPECT_DOUBLE_EQ(lc.Estimate(0.0, rng).estimate,
                   static_cast<double>(setup.dataset.NumPairs()));
}

TEST(LatticeCountingTest, EstimateWithinBoundsAndUnguaranteed) {
  auto setup = testing::MakeCosineSetup(300, 8);
  LatticeCountingEstimator lc(setup.dataset, *setup.family, {});
  Rng rng(3);
  for (double tau : {0.1, 0.5, 0.9}) {
    const EstimationResult r = lc.Estimate(tau, rng);
    EXPECT_GE(r.estimate, 0.0);
    EXPECT_LE(r.estimate, static_cast<double>(setup.dataset.NumPairs()));
    EXPECT_FALSE(r.guaranteed);
  }
}

TEST(LatticeCountingTest, OrderOfMagnitudeWithMinHashAtModerateTau) {
  // With an identity collision curve the power-law fit has full [0,1]
  // support; expect the estimate within ~an order of magnitude at τ = 0.3.
  auto setup = testing::MakeJaccardSetup(800, 6, 1, 11);
  GroundTruth truth(setup.dataset, SimilarityMeasure::kJaccard, {0.3});
  const double true_j = static_cast<double>(truth.JoinSize(0.3));
  ASSERT_GT(true_j, 0.0);
  LatticeCountingEstimator lc(setup.dataset, *setup.family,
                              {.signature_length = 32});
  Rng rng(4);
  const double est = lc.Estimate(0.3, rng).estimate;
  EXPECT_GT(est, true_j / 20.0);
  EXPECT_LT(est, true_j * 20.0);
}

TEST(LatticeCountingTest, MinSupportReducesMoments) {
  auto setup = testing::MakeJaccardSetup(400, 6, 1, 13);
  LatticeCountingEstimator all(setup.dataset, *setup.family,
                               {.signature_length = 16, .min_support = 2});
  LatticeCountingEstimator filtered(
      setup.dataset, *setup.family,
      {.signature_length = 16, .min_support = 8});
  EXPECT_LE(filtered.moments()[0], all.moments()[0]);
}

}  // namespace
}  // namespace vsj
