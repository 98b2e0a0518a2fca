// Unit tests of the shared SampleH / SampleL templates: the degenerate
// budget guards (the delta == 0 / m == 0 NaN regressions), the exact
// budget-boundary semantics of the dampening modes, and the batched pair
// evaluation kernel's equivalence with the scalar Similarity loop.

#include "vsj/core/stratified_sampling.h"

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/sparse_vector.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {
namespace {

/// Four vectors with fully controlled pairwise similarities: ids 0 and 1
/// are identical (cosine 1), ids 2 and 3 are orthogonal to each other and
/// to everything (cosine 0).
VectorDataset ScriptedCorpus() {
  VectorDataset dataset;
  dataset.Add(SparseVector::FromDims({1, 2}).ref());
  dataset.Add(SparseVector::FromDims({1, 2}).ref());
  dataset.Add(SparseVector::FromDims({10}).ref());
  dataset.Add(SparseVector::FromDims({11}).ref());
  return dataset;
}

/// A sweep of one τ (the templates take a span of thresholds).
std::span<const double> OneTau(const double& tau) { return {&tau, 1}; }

/// A pair source replaying a fixed script; ignores the RNG (legal for a
/// direct template caller — the RNG contract is the engines' concern).
struct ScriptedPairs {
  std::vector<VectorPair> pairs;
  size_t next = 0;
  VectorPair operator()(Rng&) { return pairs[next++]; }
};

TEST(StratifiedSamplingTest, SampleLZeroDeltaIsGuardedNotNaN) {
  // Regression: delta == 0 means the adaptive loop never draws, and the
  // "reliable" scale-up used to compute 0 · N_L / 0 = NaN.
  const VectorDataset dataset = ScriptedCorpus();
  Rng rng(1);
  EstimationResult result;
  ScriptedPairs pairs;  // never consulted
  SampleStratumL(DatasetView(dataset), SimilarityMeasure::kCosine,
                 OneTau(0.5), /*num_pairs_l=*/6, /*m_l=*/4, /*delta=*/0,
                 DampeningMode::kSafeLowerBound, 1.0, pairs, rng,
                 {&result, 1});
  EXPECT_FALSE(std::isnan(result.stratum_l_estimate));
  EXPECT_EQ(result.stratum_l_estimate, 0.0);
  EXPECT_FALSE(result.guaranteed);
  EXPECT_EQ(result.pairs_evaluated, 0u);
}

TEST(StratifiedSamplingTest, SampleLZeroBudgetIsGuardedNotNaN) {
  const VectorDataset dataset = ScriptedCorpus();
  Rng rng(1);
  EstimationResult result;
  ScriptedPairs pairs;
  SampleStratumL(DatasetView(dataset), SimilarityMeasure::kCosine,
                 OneTau(0.5), /*num_pairs_l=*/6, /*m_l=*/0, /*delta=*/2,
                 DampeningMode::kAdaptiveNlOverDelta, 1.0, pairs, rng,
                 {&result, 1});
  EXPECT_FALSE(std::isnan(result.stratum_l_estimate));
  EXPECT_EQ(result.stratum_l_estimate, 0.0);
  EXPECT_FALSE(result.guaranteed);
}

TEST(StratifiedSamplingTest, SampleHZeroBudgetIsGuardedNotNaN) {
  // Regression: m_h == 0 used to scale 0 hits by N_H / 0 = NaN.
  const VectorDataset dataset = ScriptedCorpus();
  Rng rng(1);
  EstimationResult result;
  ScriptedPairs pairs;
  SampleStratumH(DatasetView(dataset), SimilarityMeasure::kCosine,
                 OneTau(0.5), /*num_pairs_h=*/3, /*m_h=*/0, pairs, rng,
                 {&result, 1});
  EXPECT_FALSE(std::isnan(result.stratum_h_estimate));
  EXPECT_EQ(result.stratum_h_estimate, 0.0);
  EXPECT_EQ(result.pairs_evaluated, 0u);
}

TEST(StratifiedSamplingTest, DeltaReachedOnFinalDrawStaysReliable) {
  // The exact budget boundary: samples == m_l with hits == delta landing
  // on the very last draw. The adaptive guarantee holds (δ was reached),
  // so every dampening mode must return the same reliable scale-up
  // hits · N_L / samples and leave *reliable set.
  const VectorDataset dataset = ScriptedCorpus();
  for (DampeningMode mode :
       {DampeningMode::kSafeLowerBound, DampeningMode::kFixedFactor,
        DampeningMode::kAdaptiveNlOverDelta}) {
    Rng rng(1);
    EstimationResult result;  // guaranteed starts true; SampleL only clears
    // miss, miss, hit, hit: the 2nd hit (δ = 2) arrives on draw 4 (= m_l).
    ScriptedPairs pairs{{{2, 3}, {2, 3}, {0, 1}, {0, 1}}};
    SampleStratumL(DatasetView(dataset), SimilarityMeasure::kCosine,
                   OneTau(0.5), /*num_pairs_l=*/6, /*m_l=*/4, /*delta=*/2,
                   mode, /*dampening_factor=*/0.5, pairs, rng, {&result, 1});
    EXPECT_DOUBLE_EQ(result.stratum_l_estimate, 2.0 * 6.0 / 4.0)
        << static_cast<int>(mode);
    EXPECT_TRUE(result.guaranteed) << static_cast<int>(mode);
    EXPECT_EQ(result.pairs_evaluated, 4u) << static_cast<int>(mode);
  }
}

TEST(StratifiedSamplingTest, DeltaMissedAtBudgetAppliesEachDampening) {
  // One hit short of δ when the budget runs out: *reliable clears and the
  // three modes diverge exactly as Theorems 1/2 prescribe.
  const VectorDataset dataset = ScriptedCorpus();
  // miss, miss, miss, hit: hits = 1 < δ = 2 after m_l = 4 draws.
  const std::vector<VectorPair> script = {{2, 3}, {2, 3}, {2, 3}, {0, 1}};
  struct Case {
    DampeningMode mode;
    double expected;
  };
  const Case cases[] = {
      // Safe lower bound: n_L itself.
      {DampeningMode::kSafeLowerBound, 1.0},
      // n_L · c_s · N_L / m_L with c_s = 0.5.
      {DampeningMode::kFixedFactor, 1.0 * 0.5 * 6.0 / 4.0},
      // c_s = n_L / δ = 0.5.
      {DampeningMode::kAdaptiveNlOverDelta, 1.0 * 0.5 * 6.0 / 4.0},
  };
  for (const Case& c : cases) {
    Rng rng(1);
    EstimationResult result;
    ScriptedPairs pairs{script};
    SampleStratumL(DatasetView(dataset), SimilarityMeasure::kCosine,
                   OneTau(0.5), /*num_pairs_l=*/6, /*m_l=*/4, /*delta=*/2,
                   c.mode, /*dampening_factor=*/0.5, pairs, rng,
                   {&result, 1});
    EXPECT_DOUBLE_EQ(result.stratum_l_estimate, c.expected)
        << static_cast<int>(c.mode);
    EXPECT_FALSE(result.guaranteed) << static_cast<int>(c.mode);
  }
}

TEST(StratifiedSamplingTest, CountPairsAtOrAboveMatchesScalarLoop) {
  // The batched kernel must count exactly what the unbatched Similarity
  // loop counts — same arithmetic per pair, any count, any prefetch
  // distance (bit-identity contract of the batched pipeline).
  const VectorDataset dataset = testing::SmallClusteredCorpus(200, 3);
  const DatasetView view(dataset);
  Rng rng(99);
  std::vector<VectorId> firsts, seconds;
  for (size_t i = 0; i < 301; ++i) {
    firsts.push_back(static_cast<VectorId>(rng.Below(dataset.size())));
    seconds.push_back(static_cast<VectorId>(rng.Below(dataset.size())));
  }
  for (SimilarityMeasure measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kJaccard}) {
    for (double tau : {0.1, 0.5, 0.9}) {
      for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                           size_t{301}}) {
        uint64_t expected = 0;
        for (size_t i = 0; i < count; ++i) {
          if (Similarity(measure, view[firsts[i]], view[seconds[i]]) >= tau) {
            ++expected;
          }
        }
        for (size_t prefetch : {size_t{0}, size_t{8}, size_t{1000}}) {
          EXPECT_EQ(CountPairsAtOrAbove(measure, view, firsts.data(),
                                        seconds.data(), count, tau, prefetch),
                    expected)
              << "count=" << count << " tau=" << tau
              << " prefetch=" << prefetch;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vsj
