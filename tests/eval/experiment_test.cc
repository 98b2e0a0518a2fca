#include "vsj/eval/experiment.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/core/random_pair_sampling.h"
#include "vsj/service/estimation_service.h"

namespace vsj {
namespace {

TEST(ExperimentTest, RunsRequestedTrials) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 1);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine,
                        {.sample_size = 100});
  const std::vector<TrialSeries> series = RunTrials(rs, {0.5, 0.8}, 12, 7);
  ASSERT_EQ(series.size(), 2u);
  for (const TrialSeries& s : series) {
    EXPECT_EQ(s.estimates.size(), 12u);
    EXPECT_EQ(s.pairs_evaluated.size(), 12u);
    EXPECT_GE(s.mean_runtime_ms, 0.0);
  }
  EXPECT_DOUBLE_EQ(series[0].tau, 0.5);
  EXPECT_DOUBLE_EQ(series[1].tau, 0.8);
  // One timer per sweep trial: every τ of the call reports the same time.
  EXPECT_EQ(series[0].mean_runtime_ms, series[1].mean_runtime_ms);
}

TEST(ExperimentTest, ReproducibleForSameSeed) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 2);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine,
                        {.sample_size = 500});
  const TrialSeries a = RunTrials(rs, {0.3}, 5, 42).front();
  const TrialSeries b = RunTrials(rs, {0.3}, 5, 42).front();
  EXPECT_EQ(a.estimates, b.estimates);
}

TEST(ExperimentTest, AddingTrialsKeepsPrefix) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 3);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine,
                        {.sample_size = 500});
  const TrialSeries five = RunTrials(rs, {0.3}, 5, 9).front();
  const TrialSeries ten = RunTrials(rs, {0.3}, 10, 9).front();
  for (size_t t = 0; t < 5; ++t) {
    EXPECT_DOUBLE_EQ(five.estimates[t], ten.estimates[t]);
  }
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  VectorDataset dataset = testing::SmallClusteredCorpus(300, 4);
  RandomPairSampling rs(dataset, SimilarityMeasure::kCosine,
                        {.sample_size = 200});
  const TrialSeries a = RunTrials(rs, {0.2}, 8, 1).front();
  const TrialSeries b = RunTrials(rs, {0.2}, 8, 2).front();
  EXPECT_NE(a.estimates, b.estimates);
}

TEST(ExperimentTest, HarnessMatchesTheServedAnswerBitForBit) {
  // A figure cell and a served answer are the same computation: the mean
  // of RunTrials' estimates at τ_j equals, bit for bit, the mean_estimate
  // the engine serves for {name, τ_j, trials, seed} — for sharing
  // estimators (one sweep group on the server) and non-sharing ones (one
  // group per request) alike, over a two-table index.
  EstimationServiceOptions options;
  options.k = 8;
  options.num_tables = 2;
  options.num_threads = 2;
  options.cache_capacity = 0;
  EstimationService service(testing::SmallClusteredCorpus(600, 11), options);
  const EstimatorContext context{.dataset = service.dataset(),
                                 .index = &service.index(),
                                 .measure = service.options().measure,
                                 .lsh_ss = service.options().lsh_ss};

  const std::vector<double> taus = {0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9};
  constexpr size_t kTrials = 4;
  constexpr uint64_t kSeed = 23;
  for (const char* name :
       {"LSH-SS", "LSH-SS(D)", "LSH-SS(median)", "LSH-SS(vbucket)",
        "RS(pop)", "Adaptive", "RS(cross)"}) {
    const std::vector<TrialSeries> series =
        RunTrials(*CreateEstimator(name, context), taus, kTrials, kSeed);
    std::vector<EstimateRequest> requests;
    for (double tau : taus) {
      EstimateRequest request;
      request.estimator_name = name;
      request.tau = tau;
      request.trials = kTrials;
      request.seed = kSeed;
      requests.push_back(request);
    }
    const std::vector<EstimateResponse> served =
        service.EstimateBatch(requests);
    ASSERT_EQ(series.size(), taus.size());
    ASSERT_EQ(served.size(), taus.size());
    for (size_t j = 0; j < taus.size(); ++j) {
      double sum = 0.0;
      for (double e : series[j].estimates) sum += e;
      EXPECT_EQ(sum / static_cast<double>(kTrials), served[j].mean_estimate)
          << name << " tau=" << taus[j];
    }
  }
}

}  // namespace
}  // namespace vsj
