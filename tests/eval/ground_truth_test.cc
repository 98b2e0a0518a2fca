#include "vsj/eval/ground_truth.h"

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/gen/workloads.h"
#include "vsj/join/brute_force_join.h"

namespace vsj {
namespace {

TEST(GroundTruthTest, StandardThresholdGrid) {
  const auto taus = StandardThresholds();
  ASSERT_EQ(taus.size(), 10u);
  EXPECT_DOUBLE_EQ(taus.front(), 0.1);
  EXPECT_DOUBLE_EQ(taus.back(), 1.0);
}

// The oracle against the O(n²) reference, per generator × measure over the
// standard grid. Cosine reproduces CosineSimilarity's arithmetic; the
// Jaccard denominator l1(u) + l1(v) − Σmin is not JaccardSimilarity's Σmax,
// so equal counts there are pinned by this table, not by construction.
enum class Corpus { kNyt, kDblp, kPubmed };

CorpusConfig ConfigOf(Corpus corpus) {
  constexpr size_t kN = 300;
  switch (corpus) {
    case Corpus::kNyt:
      return NytLikeConfig(kN);
    case Corpus::kDblp:
      return DblpLikeConfig(kN);
    case Corpus::kPubmed:
      return PubmedLikeConfig(kN);
  }
  return DblpLikeConfig(kN);
}

class GroundTruthReferenceTest
    : public ::testing::TestWithParam<std::tuple<Corpus, SimilarityMeasure>> {
};

TEST_P(GroundTruthReferenceTest, JoinSizesMatchBruteForce) {
  const auto [corpus, measure] = GetParam();
  const VectorDataset dataset = GenerateCorpus(ConfigOf(corpus));
  const GroundTruth truth(dataset, measure, StandardThresholds());
  for (double tau : StandardThresholds()) {
    EXPECT_EQ(truth.JoinSize(tau), BruteForceJoinSize(dataset, measure, tau))
        << "tau = " << tau;
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<GroundTruthReferenceTest::ParamType>&
        info) {
  static const char* const kCorpusNames[] = {"Nyt", "Dblp", "Pubmed"};
  const auto [corpus, measure] = info.param;
  return std::string(kCorpusNames[static_cast<int>(corpus)]) +
         (measure == SimilarityMeasure::kCosine ? "Cosine" : "Jaccard");
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsAndMeasures, GroundTruthReferenceTest,
    ::testing::Combine(::testing::Values(Corpus::kNyt, Corpus::kDblp,
                                         Corpus::kPubmed),
                       ::testing::Values(SimilarityMeasure::kCosine,
                                         SimilarityMeasure::kJaccard)),
    CaseName);

TEST(GroundTruthTest, SelectivityIsJoinSizeOverM) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 2);
  GroundTruth truth(dataset, SimilarityMeasure::kCosine, {0.5});
  EXPECT_DOUBLE_EQ(truth.Selectivity(0.5),
                   static_cast<double>(truth.JoinSize(0.5)) /
                       static_cast<double>(dataset.NumPairs()));
  EXPECT_EQ(truth.TotalPairs(), dataset.NumPairs());
}

TEST(GroundTruthTest, JoinSizeMonotoneInTau) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300, 3);
  GroundTruth truth(dataset, SimilarityMeasure::kCosine,
                    StandardThresholds());
  uint64_t prev = dataset.NumPairs();
  for (double tau : StandardThresholds()) {
    EXPECT_LE(truth.JoinSize(tau), prev);
    prev = truth.JoinSize(tau);
  }
}

TEST(GroundTruthTest, ThresholdZeroReturnsAllPairs) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(100, 3));
  GroundTruth truth(dataset, SimilarityMeasure::kCosine, {0.5});
  EXPECT_EQ(truth.JoinSize(0.0), dataset.NumPairs());
  EXPECT_EQ(truth.JoinSize(-1.0), dataset.NumPairs());
}

TEST(GroundTruthTest, ThresholdsAreSortedAndKept) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(50, 4));
  GroundTruth truth(dataset, SimilarityMeasure::kCosine, {0.9, 0.3, 0.6});
  EXPECT_EQ(truth.thresholds(), (std::vector<double>{0.3, 0.6, 0.9}));
}

TEST(GroundTruthTest, SingleThreadMatchesMultiThread) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(250, 5));
  const std::vector<double> taus = {0.3, 0.6, 0.9};
  GroundTruth four(dataset, SimilarityMeasure::kCosine, taus, 4);
  GroundTruth one(dataset, SimilarityMeasure::kCosine, taus, 1);
  for (double tau : taus) {
    EXPECT_EQ(four.JoinSize(tau), one.JoinSize(tau)) << "tau = " << tau;
  }
}

TEST(GroundTruthTest, IdenticalVectorsCountAtOne) {
  VectorDataset dataset;
  dataset.Add(SparseVector::FromDims({1, 2}));
  dataset.Add(SparseVector::FromDims({1, 2}));
  dataset.Add(SparseVector::FromDims({3}));
  for (SimilarityMeasure measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kJaccard}) {
    GroundTruth truth(dataset, measure, {1.0});
    EXPECT_EQ(truth.JoinSize(1.0), 1u);
  }
}

TEST(GroundTruthTest, TinyDatasets) {
  VectorDataset empty;
  GroundTruth t0(empty, SimilarityMeasure::kCosine, {0.5});
  EXPECT_EQ(t0.TotalPairs(), 0u);
  EXPECT_EQ(t0.JoinSize(0.5), 0u);
  EXPECT_EQ(t0.Selectivity(0.5), 0.0);
  VectorDataset one;
  one.Add(SparseVector::FromDims({1}));
  GroundTruth t1(one, SimilarityMeasure::kCosine, {0.5});
  EXPECT_EQ(t1.TotalPairs(), 0u);
  EXPECT_EQ(t1.JoinSize(0.5), 0u);
}

TEST(GroundTruthDeathTest, UnregisteredThresholdAborts) {
  VectorDataset dataset;
  dataset.Add(SparseVector::FromDims({1}));
  dataset.Add(SparseVector::FromDims({2}));
  GroundTruth truth(dataset, SimilarityMeasure::kCosine, {0.5});
  EXPECT_DEATH(truth.JoinSize(0.6), "not registered");
}

TEST(GroundTruthDeathTest, RejectsOutOfRangeThreshold) {
  VectorDataset dataset;
  dataset.Add(SparseVector::FromDims({1}));
  EXPECT_DEATH(GroundTruth(dataset, SimilarityMeasure::kCosine, {1.5}),
               "thresholds must lie");
  EXPECT_DEATH(GroundTruth(dataset, SimilarityMeasure::kCosine, {0.0}),
               "thresholds must lie");
}

}  // namespace
}  // namespace vsj
