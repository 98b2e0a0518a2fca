// Reference loops of the uniform-pair baselines. RS(pop), RS(pop,general)
// and Adaptive answer through Algorithm 1's shared pass
// (core/stratified_sampling.h) as one-stratum pair sources; each must give
// what its own scalar draw-and-evaluate loop gave, inlined below as the
// reference, over three relations × nine τ × twenty seeds. RS(pop) and
// RS(pop,general) match bit for bit, RNG state after the call included.
// Adaptive matches in hits, draws, guarantee and RNG state; its estimate
// may differ in the last bits, since the shared pass scales a missed δ as
// (hits · M) / m rather than hits · (M / m).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/core/adaptive_sampling.h"
#include "vsj/core/general_join.h"
#include "vsj/core/random_pair_sampling.h"
#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/vector/similarity.h"

namespace vsj {
namespace {

constexpr uint64_t kSeeds = 20;
constexpr SimilarityMeasure kMeasure = SimilarityMeasure::kCosine;

std::vector<double> NineTaus() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

struct Relation {
  std::string name;
  CorpusConfig (*config)(size_t, uint64_t);
};

std::vector<Relation> Relations() {
  return {{"dblp", &DblpLikeConfig},
          {"nyt", &NytLikeConfig},
          {"pubmed", &PubmedLikeConfig}};
}

/// True when both generators produce the same next outputs.
bool SameState(Rng a, Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a.Next() != b.Next()) return false;
  }
  return true;
}

/// RS(pop)'s scalar loop: m uniform distinct pairs, hits · M / m.
EstimationResult ReferenceRandomPairs(DatasetView dataset, uint64_t m,
                                      double tau, Rng& rng) {
  const size_t n = dataset.size();
  const double total_pairs = static_cast<double>(dataset.NumPairs());
  uint64_t hits = 0;
  for (uint64_t s = 0; s < m; ++s) {
    const auto u = static_cast<VectorId>(rng.Below(n));
    auto v = static_cast<VectorId>(rng.Below(n - 1));
    if (v >= u) ++v;
    if (Similarity(kMeasure, dataset[u], dataset[v]) >= tau) ++hits;
  }
  EstimationResult result;
  result.pairs_evaluated = m;
  result.estimate = ClampEstimate(
      static_cast<double>(hits) * total_pairs / static_cast<double>(m),
      dataset.NumPairs());
  return result;
}

/// RS(pop,general)'s scalar loop: m uniform (u, v) ∈ U × V.
EstimationResult ReferenceGeneralRandomPairs(DatasetView left,
                                             DatasetView right, uint64_t m,
                                             double tau, Rng& rng) {
  uint64_t hits = 0;
  for (uint64_t s = 0; s < m; ++s) {
    const auto u = static_cast<VectorId>(rng.Below(left.size()));
    const auto v = static_cast<VectorId>(rng.Below(right.size()));
    if (Similarity(kMeasure, left[u], right[v]) >= tau) ++hits;
  }
  const uint64_t total_pairs = uint64_t{left.size()} * right.size();
  EstimationResult result;
  result.pairs_evaluated = m;
  result.estimate = ClampEstimate(static_cast<double>(hits) *
                                      static_cast<double>(total_pairs) /
                                      static_cast<double>(m),
                                  total_pairs);
  return result;
}

/// Adaptive's scalar loop: uniform distinct pairs until δ hits or m draws.
struct AdaptiveReference {
  uint64_t hits = 0;
  uint64_t samples = 0;
  bool guaranteed = false;
  double estimate = 0.0;
};

AdaptiveReference ReferenceAdaptive(DatasetView dataset, uint64_t delta,
                                    uint64_t max_samples, double tau,
                                    Rng& rng) {
  const size_t n = dataset.size();
  AdaptiveReference out;
  while (out.hits < delta && out.samples < max_samples) {
    const auto u = static_cast<VectorId>(rng.Below(n));
    auto v = static_cast<VectorId>(rng.Below(n - 1));
    if (v >= u) ++v;
    if (Similarity(kMeasure, dataset[u], dataset[v]) >= tau) ++out.hits;
    ++out.samples;
  }
  out.guaranteed = out.hits >= delta;
  const double scale = static_cast<double>(dataset.NumPairs()) /
                       static_cast<double>(out.samples);
  out.estimate = ClampEstimate(static_cast<double>(out.hits) * scale,
                               dataset.NumPairs());
  return out;
}

TEST(SamplingBaselineReferenceTest, RandomPairSamplingMatchesScalarLoop) {
  for (const Relation& relation : Relations()) {
    const VectorDataset dataset = GenerateCorpus(relation.config(800, 5));
    const RandomPairSampling estimator(dataset, kMeasure);
    for (const double tau : NineTaus()) {
      for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng expected_rng(seed);
        Rng actual_rng(seed);
        const EstimationResult expected = ReferenceRandomPairs(
            dataset, DefaultRsSampleSize(dataset.size()), tau, expected_rng);
        const EstimationResult actual = estimator.Estimate(tau, actual_rng);
        ASSERT_EQ(actual.estimate, expected.estimate)
            << relation.name << " tau=" << tau << " seed=" << seed;
        ASSERT_EQ(actual.pairs_evaluated, expected.pairs_evaluated);
        ASSERT_EQ(actual.guaranteed, expected.guaranteed);
        ASSERT_TRUE(SameState(actual_rng, expected_rng))
            << relation.name << " tau=" << tau << " seed=" << seed;
      }
    }
  }
}

TEST(SamplingBaselineReferenceTest, GeneralRandomPairsMatchScalarLoop) {
  for (const Relation& relation : Relations()) {
    const VectorDataset left = GenerateCorpus(relation.config(600, 6));
    const VectorDataset right = GenerateCorpus(relation.config(350, 7));
    const GeneralRandomPairSampling estimator(left, right, kMeasure);
    const auto m = static_cast<uint64_t>(std::llround(1.5 * 600));
    for (const double tau : NineTaus()) {
      for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng expected_rng(seed);
        Rng actual_rng(seed);
        const EstimationResult expected =
            ReferenceGeneralRandomPairs(left, right, m, tau, expected_rng);
        const EstimationResult actual = estimator.Estimate(tau, actual_rng);
        ASSERT_EQ(actual.estimate, expected.estimate)
            << relation.name << " tau=" << tau << " seed=" << seed;
        ASSERT_EQ(actual.pairs_evaluated, expected.pairs_evaluated);
        ASSERT_EQ(actual.guaranteed, expected.guaranteed);
        ASSERT_TRUE(SameState(actual_rng, expected_rng))
            << relation.name << " tau=" << tau << " seed=" << seed;
      }
    }
  }
}

TEST(SamplingBaselineReferenceTest, AdaptiveMatchesScalarLoop) {
  for (const Relation& relation : Relations()) {
    const VectorDataset dataset = GenerateCorpus(relation.config(800, 8));
    // δ = log₂ 800 = 9 and m = n, the defaults, plus a tighter budget so
    // both stopping rules show up at every τ.
    for (const AdaptiveSamplingOptions options :
         {AdaptiveSamplingOptions{}, AdaptiveSamplingOptions{3, 200}}) {
      const AdaptiveSamplingEstimator estimator(dataset, kMeasure, options);
      const uint64_t delta = options.delta != 0 ? options.delta : 9;
      const uint64_t m = options.max_samples != 0 ? options.max_samples : 800;
      for (const double tau : NineTaus()) {
        for (uint64_t seed = 0; seed < kSeeds; ++seed) {
          Rng expected_rng(seed);
          Rng actual_rng(seed);
          const AdaptiveReference expected =
              ReferenceAdaptive(dataset, delta, m, tau, expected_rng);
          const EstimationResult actual =
              estimator.Estimate(tau, actual_rng);
          ASSERT_EQ(actual.strata.size(), 1u);
          ASSERT_EQ(actual.strata[0].hits, expected.hits)
              << relation.name << " tau=" << tau << " seed=" << seed;
          ASSERT_EQ(actual.pairs_evaluated, expected.samples);
          ASSERT_EQ(actual.guaranteed, expected.guaranteed);
          ASSERT_DOUBLE_EQ(actual.estimate, expected.estimate)
              << relation.name << " tau=" << tau << " seed=" << seed;
          ASSERT_TRUE(SameState(actual_rng, expected_rng))
              << relation.name << " tau=" << tau << " seed=" << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vsj
