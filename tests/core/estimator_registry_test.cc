#include "vsj/core/estimator_registry.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/lsh_ss_estimator.h"

namespace vsj {
namespace {

class EstimatorRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = testing::MakeCosineSetup(300, 8, 2);
    context_.dataset = setup_.dataset;
    context_.index = setup_.index.get();
    context_.measure = SimilarityMeasure::kCosine;
  }

  testing::CosineSetup setup_;
  EstimatorContext context_;
};

TEST_F(EstimatorRegistryTest, CreatesEveryRegisteredEstimator) {
  for (const std::string& name : AllEstimatorNames()) {
    auto estimator = CreateEstimator(name, context_);
    ASSERT_NE(estimator, nullptr) << name;
    Rng rng(1);
    const EstimationResult r = estimator->Estimate(0.5, rng);
    EXPECT_GE(r.estimate, 0.0) << name;
    EXPECT_LE(r.estimate, static_cast<double>(setup_.dataset.NumPairs()))
        << name;
  }
}

TEST_F(EstimatorRegistryTest, NamesRoundTrip) {
  EXPECT_EQ(CreateEstimator("LSH-SS", context_)->name(), "LSH-SS");
  EXPECT_EQ(CreateEstimator("LSH-SS(D)", context_)->name(), "LSH-SS(D)");
  EXPECT_EQ(CreateEstimator("RS(pop)", context_)->name(), "RS(pop)");
  EXPECT_EQ(CreateEstimator("RS(cross)", context_)->name(), "RS(cross)");
  EXPECT_EQ(CreateEstimator("LC", context_)->name(), "LC");
}

TEST_F(EstimatorRegistryTest, HeadlineNamesAreSubsetOfAll) {
  const auto all = AllEstimatorNames();
  for (const std::string& name : HeadlineEstimatorNames()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
}

TEST_F(EstimatorRegistryTest, OptionsPropagate) {
  context_.lsh_ss.sample_size_h = 77;
  auto estimator = CreateEstimator("LSH-SS", context_);
  auto* lsh_ss = dynamic_cast<LshSsEstimator*>(estimator.get());
  ASSERT_NE(lsh_ss, nullptr);
  Rng rng(1);
  EXPECT_EQ(lsh_ss->Estimate(0.5, rng).strata[0].draws, 77u);
}

TEST_F(EstimatorRegistryTest, UnknownNameAborts) {
  EXPECT_DEATH(CreateEstimator("NoSuchEstimator", context_), "unknown");
}

TEST_F(EstimatorRegistryTest, MissingIndexAborts) {
  EstimatorContext no_index;
  no_index.dataset = setup_.dataset;
  EXPECT_DEATH(CreateEstimator("LSH-SS", no_index), "requires an LSH index");
}

TEST_F(EstimatorRegistryTest, MissingDatasetAborts) {
  EstimatorContext empty;
  EXPECT_DEATH(CreateEstimator("RS(pop)", empty), "dataset");
}

TEST_F(EstimatorRegistryTest, EveryIndexFreeEstimatorWorksWithoutIndex) {
  // The pure sampling estimators must construct from a dataset alone.
  EstimatorContext no_index;
  no_index.dataset = setup_.dataset;
  no_index.measure = SimilarityMeasure::kCosine;
  for (const char* name : {"RS(pop)", "RS(cross)", "Adaptive", "Bifocal"}) {
    auto estimator = CreateEstimator(name, no_index);
    ASSERT_NE(estimator, nullptr) << name;
    Rng rng(3);
    EXPECT_GE(estimator->Estimate(0.6, rng).estimate, 0.0) << name;
  }
}

TEST_F(EstimatorRegistryTest, EveryLshEstimatorAbortsWithoutIndex) {
  EstimatorContext no_index;
  no_index.dataset = setup_.dataset;
  for (const char* name : {"LSH-SS", "LSH-SS(D)", "LSH-S", "J_U", "LC",
                           "LSH-SS(median)", "LSH-SS(vbucket)"}) {
    EXPECT_DEATH(CreateEstimator(name, no_index), "requires an LSH index")
        << name;
  }
}

TEST_F(EstimatorRegistryTest, EveryNameRoundTripsItsDisplayName) {
  for (const std::string& name : AllEstimatorNames()) {
    auto estimator = CreateEstimator(name, context_);
    EXPECT_EQ(estimator->name(), name) << name;
  }
}

TEST_F(EstimatorRegistryTest, CreatesUnderJaccardMeasureToo) {
  auto jaccard = testing::MakeJaccardSetup(300, 6, 2);
  EstimatorContext context;
  context.dataset = jaccard.dataset;
  context.index = jaccard.index.get();
  context.measure = SimilarityMeasure::kJaccard;
  for (const std::string& name : AllEstimatorNames()) {
    auto estimator = CreateEstimator(name, context);
    ASSERT_NE(estimator, nullptr) << name;
    Rng rng(1);
    const EstimationResult r = estimator->Estimate(0.5, rng);
    EXPECT_GE(r.estimate, 0.0) << name;
    EXPECT_LE(r.estimate, static_cast<double>(jaccard.dataset.NumPairs()))
        << name;
  }
}

}  // namespace
}  // namespace vsj
