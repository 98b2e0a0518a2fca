// Unit tests of the shared SampleH / SampleL templates: the degenerate
// budget guards (the delta == 0 / m == 0 NaN regressions), the exact
// budget-boundary semantics of the dampening modes, SampleH's collapse to
// distinct pairs (and its bounded table) against a naive per-draw loop,
// the stratum tallies against hand counts, the sampling counters they
// derive, the batched pair evaluation kernel's equivalence with the
// scalar Similarity loop, and the interval rules of a pooled tally.

#include "vsj/core/stratified_sampling.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/adaptive_sampling.h"
#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/obs/metrics.h"
#include "vsj/obs/obs.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/sparse_vector.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {
namespace {

/// Five vectors with fully controlled pairwise similarities: ids 0 and 1
/// are identical (cosine 1), ids 2 and 3 are orthogonal to each other and
/// to everything (cosine 0), and id 4 shares one of its two dims with ids
/// 0 and 1 (cosine 0.5).
VectorDataset ScriptedCorpus() {
  VectorDataset dataset;
  dataset.Add(SparseVector::FromDims({1, 2}).ref());
  dataset.Add(SparseVector::FromDims({1, 2}).ref());
  dataset.Add(SparseVector::FromDims({10}).ref());
  dataset.Add(SparseVector::FromDims({11}).ref());
  dataset.Add(SparseVector::FromDims({1, 3}).ref());
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

/// One-stratum Algorithm 1 over the scripted corpus at one τ with `rule`,
/// drawing from `pairs`.
EstimationResult OneStratum(uint64_t size, const StratumRule& rule,
                            ScriptedPairs& pairs, double tau = 0.5) {
  const VectorDataset dataset = ScriptedCorpus();
  Rng rng(1);
  return EstimateStratified(
             DatasetView(dataset), SimilarityMeasure::kCosine, OneTau(tau),
             rng, Stratum{size, rule, [&](Rng& r) { return pairs(r); }})
      .front();
}

TEST(StratifiedSamplingTest, SampleLZeroDeltaIsGuardedNotNaN) {
  // Regression: delta == 0 means the adaptive loop never draws, and the
  // "reliable" scale-up used to compute 0 · N_L / 0 = NaN.
  ScriptedPairs pairs;  // never consulted
  const EstimationResult result =
      OneStratum(6, {.adaptive = true, .m = 4, .delta = 0}, pairs);
  EXPECT_FALSE(std::isnan(result.estimate));
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_FALSE(result.guaranteed);
  EXPECT_EQ(result.pairs_evaluated, 0u);
  EXPECT_EQ(result.strata[0], (StratumTally{.size = 6, .adaptive = true}));
}

TEST(StratifiedSamplingTest, SampleLZeroBudgetIsGuardedNotNaN) {
  ScriptedPairs pairs;
  const EstimationResult result = OneStratum(
      6,
      {.adaptive = true,
       .m = 0,
       .delta = 2,
       .dampening = DampeningMode::kAdaptiveNlOverDelta},
      pairs);
  EXPECT_FALSE(std::isnan(result.estimate));
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_FALSE(result.guaranteed);
}

TEST(StratifiedSamplingTest, SampleHZeroBudgetIsGuardedNotNaN) {
  // Regression: m_h == 0 used to scale 0 hits by N_H / 0 = NaN.
  ScriptedPairs pairs;
  const EstimationResult result = OneStratum(3, {.m = 0}, pairs);
  EXPECT_FALSE(std::isnan(result.estimate));
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_TRUE(result.guaranteed);
  EXPECT_EQ(result.pairs_evaluated, 0u);
}

TEST(StratifiedSamplingTest, DeltaReachedOnFinalDrawStaysReliable) {
  // The exact budget boundary: samples == m_l with hits == delta landing
  // on the very last draw. The adaptive guarantee holds (δ was reached),
  // so every dampening mode must return the same reliable scale-up
  // hits · N_L / samples and leave *reliable set.
  for (DampeningMode mode :
       {DampeningMode::kSafeLowerBound, DampeningMode::kFixedFactor,
        DampeningMode::kAdaptiveNlOverDelta}) {
    // miss, miss, hit, hit: the 2nd hit (δ = 2) arrives on draw 4 (= m_l).
    ScriptedPairs pairs{{{2, 3}, {2, 3}, {0, 1}, {0, 1}}};
    const EstimationResult result = OneStratum(
        6,
        {.adaptive = true,
         .m = 4,
         .delta = 2,
         .dampening = mode,
         .dampening_factor = 0.5},
        pairs);
    EXPECT_DOUBLE_EQ(result.estimate, 2.0 * 6.0 / 4.0)
        << static_cast<int>(mode);
    EXPECT_TRUE(result.guaranteed) << static_cast<int>(mode);
    EXPECT_EQ(result.pairs_evaluated, 4u) << static_cast<int>(mode);
  }
}

TEST(StratifiedSamplingTest, DeltaMissedAtBudgetAppliesEachDampening) {
  // One hit short of δ when the budget runs out: *reliable clears and the
  // three modes diverge exactly as Theorems 1/2 prescribe.
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
    ScriptedPairs pairs{script};
    const EstimationResult result = OneStratum(
        6,
        {.adaptive = true,
         .m = 4,
         .delta = 2,
         .dampening = c.mode,
         .dampening_factor = 0.5},
        pairs);
    EXPECT_DOUBLE_EQ(result.estimate, c.expected)
        << static_cast<int>(c.mode);
    EXPECT_FALSE(result.guaranteed) << static_cast<int>(c.mode);
  }
}

TEST(StratifiedSamplingTest, TalliesMatchHandCountsOfAScriptedSweep) {
  // Two strata over scripted sources, swept at τ = 0.4 (cosine 0.5 and 1
  // are hits) and τ = 0.9 (only cosine 1 is). SampleH draws {0,1} twice,
  // {0,4} three times in both orientations and {2,3} once: 6 draws, 3
  // distinct pairs evaluated. SampleL (m_L = 70, δ = 2) draws a miss,
  // {0,4}, {1,4}, {0,1}, then misses: τ = 0.4 reaches δ on draw 3, and
  // alone would have evaluated the rest of that 64-pair batch; τ = 0.9
  // finds one hit in all 70 draws and misses δ.
  const VectorDataset dataset = ScriptedCorpus();
  ScriptedPairs h{{{0, 1}, {1, 0}, {0, 4}, {2, 3}, {4, 0}, {0, 4}}};
  ScriptedPairs l{{{2, 3}, {0, 4}, {1, 4}, {0, 1}}};
  l.pairs.resize(70, {2, 3});
  const std::vector<double> taus = {0.4, 0.9};
  Rng rng(1);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::EnableMetrics(true);
  registry.ResetValues();
  const std::vector<EstimationResult> results = EstimateStratified(
      DatasetView(dataset), SimilarityMeasure::kCosine, taus, rng,
      Stratum{5, StratumRule{.m = 6}, [&](Rng& r) { return h(r); }},
      Stratum{100, StratumRule{.adaptive = true, .m = 70, .delta = 2},
              [&](Rng& r) { return l(r); }});
  const auto counter = [&](const char* name) {
    return registry.GetCounter(name).Value();
  };
  // One pass per stratum: SampleH's 3 evaluations serve 6 draws, and
  // SampleL's stream runs to τ = 0.9's 70 draws, discarding nothing.
  EXPECT_EQ(counter("estimate.pairs_h"), 3u);
  EXPECT_EQ(counter("estimate.pairs_h_repeats"), 3u);
  EXPECT_EQ(counter("estimate.pairs_l"), 70u);
  EXPECT_EQ(counter("estimate.pairs_l_discarded"), 0u);
  EXPECT_EQ(counter("estimate.sample_l_early_exit"), 1u);
  EXPECT_EQ(counter("estimate.sample_l_dampened"), 1u);
  EXPECT_EQ(h.next, 6u);
  EXPECT_EQ(l.next, 70u);

  // τ = 0.4 alone tallies exactly what it tallied in the sweep; its own
  // pass stops after 3 draws and discards the other 61 of the batch.
  ScriptedPairs h_alone{h.pairs};
  ScriptedPairs l_alone{l.pairs};
  Rng alone_rng(1);
  registry.ResetValues();
  const EstimationResult alone =
      EstimateStratified(
          DatasetView(dataset), SimilarityMeasure::kCosine, OneTau(0.4),
          alone_rng,
          Stratum{5, StratumRule{.m = 6}, [&](Rng& r) { return h_alone(r); }},
          Stratum{100, StratumRule{.adaptive = true, .m = 70, .delta = 2},
                  [&](Rng& r) { return l_alone(r); }})
          .front();
  EXPECT_EQ(alone.strata, results[0].strata);
  EXPECT_EQ(counter("estimate.pairs_l"), 3u);
  EXPECT_EQ(counter("estimate.pairs_l_discarded"), 61u);
  obs::EnableMetrics(false);

  ASSERT_EQ(results.size(), 2u);
  const EstimationResult& low = results[0];
  ASSERT_EQ(low.strata.size(), 2u);
  EXPECT_EQ(low.strata[0], (StratumTally{.size = 5,
                                         .draws = 6,
                                         .evaluated = 3,
                                         .hits = 5}));
  EXPECT_EQ(low.strata[1], (StratumTally{.size = 100,
                                         .draws = 3,
                                         .evaluated = 64,
                                         .hits = 2,
                                         .reached = 1,
                                         .adaptive = true}));
  EXPECT_EQ(low.pairs_evaluated, 9u);
  EXPECT_TRUE(low.guaranteed);
  EXPECT_EQ(low.estimate, 5.0 * 5.0 / 6.0 + 2.0 * 100.0 / 3.0);

  const EstimationResult& high = results[1];
  ASSERT_EQ(high.strata.size(), 2u);
  EXPECT_EQ(high.strata[0], (StratumTally{.size = 5,
                                          .draws = 6,
                                          .evaluated = 3,
                                          .hits = 2}));
  EXPECT_EQ(high.strata[1], (StratumTally{.size = 100,
                                          .draws = 70,
                                          .evaluated = 70,
                                          .hits = 1,
                                          .adaptive = true}));
  EXPECT_EQ(high.pairs_evaluated, 76u);
  EXPECT_FALSE(high.guaranteed);
  EXPECT_EQ(high.estimate, 2.0 * 5.0 / 6.0 + 1.0);  // safe lower bound n_L
}

/// `m_h` draws from a pool of `distinct` unordered pairs of `dataset`, each
/// draw in a random orientation, so repeats come in both orientations.
std::vector<VectorPair> RepeatingScript(size_t dataset_size, size_t distinct,
                                        size_t m_h, uint64_t seed) {
  Rng rng(seed);
  std::vector<VectorPair> pool;
  while (pool.size() < distinct) {
    const auto a = static_cast<VectorId>(rng.Below(dataset_size));
    const auto b = static_cast<VectorId>(rng.Below(dataset_size));
    if (a == b) continue;
    bool seen = false;
    for (const VectorPair& p : pool) {
      seen |= (p.first == a && p.second == b) ||
              (p.first == b && p.second == a);
    }
    if (!seen) pool.push_back({a, b});
  }
  std::vector<VectorPair> script;
  for (size_t i = 0; i < m_h; ++i) {
    VectorPair pair = pool[i < distinct ? i : rng.Below(distinct)];
    if (rng.Below(2) == 1) std::swap(pair.first, pair.second);
    script.push_back(pair);
  }
  return script;
}

/// Ĵ_H of `taus[j]` as a naive evaluate-every-draw loop computes it.
double PerDrawEstimateH(DatasetView view, SimilarityMeasure measure,
                        const std::vector<VectorPair>& script, double tau,
                        uint64_t num_pairs_h) {
  uint64_t hits = 0;
  for (const VectorPair& pair : script) {
    if (Similarity(measure, view[pair.first], view[pair.second]) >= tau) {
      ++hits;
    }
  }
  return static_cast<double>(hits) * static_cast<double>(num_pairs_h) /
         static_cast<double>(script.size());
}

TEST(StratifiedSamplingTest, SampleHCollapseMatchesPerDrawLoop) {
  // SampleH evaluates each distinct pair once and weights its hit by its
  // multiplicity. Whether repeats are certain (N_H < m_H), merely possible
  // (N_H >= m_H), or overflow a table sized for N_H (a scripted source
  // naming more pairs than N_H, so the table drains and refills), each
  // τ's Ĵ_H and pairs_evaluated must be exactly what a naive
  // evaluate-every-draw loop computes.
  const VectorDataset dataset = testing::SmallClusteredCorpus(200, 3);
  const DatasetView view(dataset);
  struct Plan {
    uint64_t num_pairs_h, m_h;
    size_t distinct;
  };
  const Plan plans[] = {
      {40, 300, 20},    // N_H < m_H: ~15 draws per pair
      {3, 200, 150},    // 150 pairs through a 3-pair table: many drains
      {90, 130, 90},    // N_H < m_H, most pairs drawn once or twice
      {500, 300, 20},   // N_H > m_H, yet repeats
      {300, 300, 120},  // N_H == m_H
  };
  const std::vector<std::vector<double>> tau_sets = {
      {0.5}, {0.1, 0.3, 0.5, 0.7, 0.9}, {0.9, 0.2, 0.9, 1.0}, {0.05}};
  for (const SimilarityMeasure measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kJaccard}) {
    for (const Plan& plan : plans) {
      const std::vector<VectorPair> script =
          RepeatingScript(view.size(), plan.distinct, plan.m_h,
                          plan.num_pairs_h ^ plan.m_h);
      for (const std::vector<double>& taus : tau_sets) {
        ScriptedPairs pairs{script};
        Rng rng(1);
        const std::vector<StratumTally> got = SampleStratumH(
            view, measure, taus,
            Stratum{plan.num_pairs_h, StratumRule{.m = plan.m_h},
                    [&](Rng& r) { return pairs(r); }},
            rng);
        ASSERT_EQ(pairs.next, plan.m_h);
        for (size_t j = 0; j < taus.size(); ++j) {
          EXPECT_EQ(StratumEstimate(got[j], {.m = plan.m_h}),
                    PerDrawEstimateH(view, measure, script, taus[j],
                                     plan.num_pairs_h))
              << SimilarityMeasureName(measure) << " N_H=" << plan.num_pairs_h
              << " m_H=" << plan.m_h << " tau=" << taus[j];
          EXPECT_EQ(got[j].draws, plan.m_h);
        }
      }
    }
  }
}

TEST(StratifiedSamplingTest, PairMultisetIsBoundedWhateverThePlan) {
  // The table is sized by min(N_H, m_H, kMaxDistinctPairsH), never by N_H
  // alone: a plan with a huge stratum and a larger budget (both come off
  // the wire) gets the capped table, not an N_H-sized one.
  EXPECT_EQ(PairMultiset(uint64_t{1} << 40, uint64_t{1} << 41).capacity(),
            2 * kMaxDistinctPairsH);
  EXPECT_EQ(PairMultiset(uint64_t{1} << 40, 4000).capacity(), 8192u);
  EXPECT_EQ(PairMultiset(75, 4000).capacity(), 256u);

  // A full table refuses a new pair (counting nothing) but still counts
  // repeats, in either orientation; Clear empties it for the next run.
  PairMultiset table(/*num_pairs_h=*/2, /*m_h=*/10);
  EXPECT_TRUE(table.Add(1, 2));
  EXPECT_TRUE(table.Add(7, 3));
  EXPECT_TRUE(table.Add(2, 1));
  EXPECT_FALSE(table.Add(5, 6));
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.first(0), 1u);
  EXPECT_EQ(table.second(0), 2u);
  EXPECT_EQ(table.count(0), 2u);
  EXPECT_EQ(table.first(1), 3u);
  EXPECT_EQ(table.second(1), 7u);
  EXPECT_EQ(table.count(1), 1u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Add(6, 5));
  EXPECT_EQ(table.count(0), 1u);
}

/// Draws naming more distinct pairs than kMaxDistinctPairsH: the pairs
/// (a < b) of a 400-vector dataset in order until `distinct` pairs, then
/// the first `early` and the last `late` of them again, swapped.
std::vector<VectorPair> PastTheTableScript(size_t distinct, size_t early,
                                           size_t late) {
  std::vector<VectorPair> script;
  for (VectorId a = 0; script.size() < distinct; ++a) {
    for (VectorId b = a + 1; b < 400 && script.size() < distinct; ++b) {
      script.push_back({a, b});
    }
  }
  for (size_t i = 0; i < distinct; ++i) {
    if (i < early || i >= distinct - late) {
      script.push_back({script[i].second, script[i].first});
    }
  }
  return script;
}

TEST(StratifiedSamplingTest, SampleHDrainsAFullTableBitIdentically) {
  // A huge stratum drawn past the table cap: the table drains at
  // kMaxDistinctPairsH distinct pairs and refills, and the estimate is
  // still exactly the per-draw loop's.
  const VectorDataset dataset = testing::SmallClusteredCorpus(400, 5);
  const DatasetView view(dataset);
  const std::vector<VectorPair> script =
      PastTheTableScript(kMaxDistinctPairsH + 4000, 1000, 2000);
  const uint64_t num_pairs_h = uint64_t{1} << 40;
  const std::vector<double> taus = {0.05, 0.3, 0.6, 0.9};
  ScriptedPairs pairs{script};
  Rng rng(1);
  const std::vector<StratumTally> got = SampleStratumH(
      view, SimilarityMeasure::kCosine, taus,
      Stratum{num_pairs_h, StratumRule{.m = script.size()},
              [&](Rng& r) { return pairs(r); }},
      rng);
  ASSERT_EQ(pairs.next, script.size());
  for (size_t j = 0; j < taus.size(); ++j) {
    EXPECT_EQ(StratumEstimate(got[j], {.m = script.size()}),
              PerDrawEstimateH(view, SimilarityMeasure::kCosine, script,
                               taus[j], num_pairs_h))
        << "tau=" << taus[j];
    EXPECT_EQ(got[j].draws, script.size());
  }
}

TEST(StratifiedSamplingTest, SampleHCountsDistinctPairsAsEvaluated) {
  // estimate.pairs_h is pairs physically evaluated: the distinct pairs of
  // each run of draws the table holds. estimate.pairs_h_repeats is the
  // draws an earlier evaluation answered.
  const VectorDataset dataset = testing::SmallClusteredCorpus(400, 3);
  const DatasetView view(dataset);
  const std::vector<double> taus = {0.3, 0.7};
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const auto run = [&](uint64_t num_pairs_h,
                       const std::vector<VectorPair>& script) {
    ScriptedPairs pairs{script};
    Rng rng(1);
    obs::EnableMetrics(true);
    registry.ResetValues();
    EstimateStratified(view, SimilarityMeasure::kCosine, taus, rng,
                       Stratum{num_pairs_h, StratumRule{.m = script.size()},
                               [&](Rng& r) { return pairs(r); }});
    const uint64_t evaluated = registry.GetCounter("estimate.pairs_h").Value();
    const uint64_t repeats =
        registry.GetCounter("estimate.pairs_h_repeats").Value();
    obs::EnableMetrics(false);
    return std::pair<uint64_t, uint64_t>(evaluated, repeats);
  };
  using Counts = std::pair<uint64_t, uint64_t>;
  EXPECT_EQ(run(/*num_pairs_h=*/40, RepeatingScript(view.size(), 20, 300, 7)),
            Counts(20, 280));
  EXPECT_EQ(run(/*num_pairs_h=*/500, RepeatingScript(view.size(), 20, 300, 7)),
            Counts(20, 280));
  // Past the cap the table drains once, at kMaxDistinctPairsH pairs. The
  // 1000 repeats of drained pairs are evaluated again; the 2000 repeats of
  // pairs still in the refilled table are not.
  EXPECT_EQ(run(/*num_pairs_h=*/uint64_t{1} << 40,
                PastTheTableScript(kMaxDistinctPairsH + 4000, 1000, 2000)),
            Counts(kMaxDistinctPairsH + 5000, 2000));
}

/// The six estimate.* sampling counters, in the order pairs_h,
/// pairs_h_repeats, pairs_l, pairs_l_discarded, sample_l_early_exit,
/// sample_l_dampened, after `trials` trials of one τ-sweep of `estimator`
/// (EstimateSweep on TrialStream(7, t)).
std::array<uint64_t, 6> CountersOfSweep(const JoinSizeEstimator& estimator,
                                        const std::vector<double>& taus,
                                        size_t trials) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::EnableMetrics(true);
  registry.ResetValues();
  for (size_t t = 0; t < trials; ++t) {
    estimator.EstimateSweep(taus, TrialStream(7, t));
  }
  std::array<uint64_t, 6> counters{};
  const char* names[] = {"estimate.pairs_h",
                         "estimate.pairs_h_repeats",
                         "estimate.pairs_l",
                         "estimate.pairs_l_discarded",
                         "estimate.sample_l_early_exit",
                         "estimate.sample_l_dampened"};
  for (size_t c = 0; c < counters.size(); ++c) {
    counters[c] = registry.GetCounter(names[c]).Value();
  }
  obs::EnableMetrics(false);
  return counters;
}

TEST(StratifiedSamplingTest, SamplingCountersOfOneSweepEach) {
  // Exact values of every sampling counter for one seeded sweep of LSH-SS,
  // LSH-SS(D) and Adaptive. The counters derive from the stratum tallies,
  // and these values are what the sampling loops counted when each loop
  // added its own. The τ grid and trials make every counter move for
  // LSH-SS: SampleH repeats (N_H < m_H), trials whose every τ reached δ
  // (discarded evaluations), and τ that missed δ (dampened).
  const testing::CosineSetup setup = testing::MakeCosineSetup(600, 8, 1, 5);
  const std::vector<double> taus = {0.1, 0.3};
  const LshSsEstimator lsh_ss(setup.dataset, setup.index->table(0),
                              SimilarityMeasure::kCosine);
  const LshSsEstimator lsh_ss_d(setup.dataset, setup.index->table(0),
                                SimilarityMeasure::kCosine,
                                {{}, DampeningMode::kAdaptiveNlOverDelta, 1.0});
  const AdaptiveSamplingEstimator adaptive(setup.dataset,
                                           SimilarityMeasure::kCosine);
  using Counters = std::array<uint64_t, 6>;
  // Dampening never changes what LSH-SS draws, so (D) counts the same.
  EXPECT_EQ(CountersOfSweep(lsh_ss, taus, 6),
            (Counters{2660, 940, 3590, 10, 7, 5}));
  EXPECT_EQ(CountersOfSweep(lsh_ss_d, taus, 6),
            (Counters{2660, 940, 3590, 10, 7, 5}));
  // Adaptive has no SampleH stratum.
  EXPECT_EQ(CountersOfSweep(adaptive, taus, 6),
            (Counters{0, 0, 3600, 0, 6, 6}));
}

TEST(StratifiedSamplingTest, CountPairsAtOrAboveMatchesScalarLoop) {
  // The batched kernel must count exactly what the unbatched Similarity
  // loop counts — same arithmetic per pair, any count (bit-identity
  // contract of the batched pipeline).
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
        EXPECT_EQ(CountPairsAtOrAbove(measure, view, firsts.data(),
                                      seconds.data(), count, tau),
                  expected)
            << "count=" << count << " tau=" << tau;
      }
    }
  }
}

TEST(StratumIntervalTest, QuantilesAndWilsonBoundsMatchClosedForms) {
  // Over S strata each z leaves (1 − kIntervalConfidence) / (2S) above it.
  for (size_t s = 1; s <= kMaxStrata; ++s) {
    const double tail = (1.0 - kIntervalConfidence) / (2.0 * s);
    EXPECT_NEAR(0.5 * std::erfc(kIntervalZ[s - 1] / std::numbers::sqrt2),
                tail, 1e-14 * tail)
        << "S = " << s;
  }
  const double z = 1.96;
  const Interval none = WilsonInterval(0, 0, z);
  EXPECT_EQ(none.lower, 0.0);
  EXPECT_EQ(none.upper, 1.0);
  // No hit: [0, z² / (n + z²)]; every draw a hit: [n / (n + z²), 1].
  const Interval zero = WilsonInterval(0, 100, z);
  EXPECT_EQ(zero.lower, 0.0);
  EXPECT_NEAR(zero.upper, z * z / (100 + z * z), 1e-15);
  const Interval all = WilsonInterval(100, 100, z);
  EXPECT_NEAR(all.lower, 100 / (100 + z * z), 1e-15);
  EXPECT_NEAR(all.upper, 1.0, 1e-15);
  // The textbook 95% Wilson interval of 50 / 100.
  const Interval half = WilsonInterval(50, 100, z);
  EXPECT_NEAR(half.lower, 0.4038, 1e-4);
  EXPECT_NEAR(half.upper, 0.5962, 1e-4);
}

TEST(StratumIntervalTest, EachStratumRuleAndTheSum) {
  const double z = kIntervalZ[1];
  // SampleH over two trials of N_H = 100 (pooled N_s is their sum).
  const StratumTally h{.size = 200, .draws = 100, .hits = 30};
  const Interval h_interval = StratumInterval(h, 2, z);
  EXPECT_EQ(h_interval.lower, WilsonInterval(30, 100, z).lower * 100);
  EXPECT_EQ(h_interval.upper, WilsonInterval(30, 100, z).upper * 100);
  // SampleL that reached δ in both trials: the same rule.
  const StratumTally reached{
      .size = 2000, .draws = 400, .hits = 20, .reached = 2, .adaptive = true};
  const Interval l_reached = StratumInterval(reached, 2, z);
  EXPECT_EQ(l_reached.lower, WilsonInterval(20, 400, z).lower * 1000);
  EXPECT_EQ(l_reached.upper, WilsonInterval(20, 400, z).upper * 1000);
  // Missed δ in one trial: the lower end drops to Theorem 1's safe lower
  // bound, the mean n_L, below the Wilson end.
  StratumTally missed = reached;
  missed.reached = 1;
  const Interval l_missed = StratumInterval(missed, 2, z);
  EXPECT_LT(10.0, WilsonInterval(20, 400, z).lower * 1000);
  EXPECT_EQ(l_missed.lower, 10.0);
  EXPECT_EQ(l_missed.upper, WilsonInterval(20, 400, z).upper * 1000);
  EXPECT_EQ(StratumInterval({.adaptive = true}, 2, z).upper, 0.0);
  // n_L counts repeats, so it can pass J_L: on N_L = 2 pairs, 10 hits of
  // 10 draws keep the Wilson lower end, within N_L.
  const StratumTally repeats{
      .size = 2, .draws = 10, .hits = 10, .adaptive = true};
  const Interval l_repeats = StratumInterval(repeats, 1, z);
  EXPECT_EQ(l_repeats.lower, WilsonInterval(10, 10, z).lower * 2);
  EXPECT_LE(l_repeats.lower, 2.0);

  // The sum of the strata at kIntervalZ[S − 1] (Bonferroni), rounded
  // outward to whole pairs.
  StratumTallies pooled;
  pooled.push_back(h);
  pooled.push_back(missed);
  const Interval sum = EstimateInterval(pooled, 2);
  EXPECT_EQ(sum.lower, std::floor(StratumInterval(h, 2, z).lower +
                                  StratumInterval(missed, 2, z).lower));
  EXPECT_EQ(sum.upper, std::ceil(StratumInterval(h, 2, z).upper +
                                 StratumInterval(missed, 2, z).upper));
  StratumTallies one;
  one.push_back(h);
  EXPECT_EQ(EstimateInterval(one, 2).upper,
            std::ceil(StratumInterval(h, 2, kIntervalZ[0]).upper));
  StratumTallies tiny;
  tiny.push_back(repeats);
  EXPECT_EQ(EstimateInterval(tiny, 1).lower, 1.0);
  EXPECT_EQ(EstimateInterval(tiny, 1).upper, 2.0);
  EXPECT_EQ(EstimateInterval(StratumTallies{}, 1).upper, 0.0);
}

TEST(StratumIntervalTest, PoolingSumsEachTrialsStratumSize) {
  // The streaming engine's trials sample different tables, each with its
  // own N_s: pooling keeps their sum, so the mean N_s is well defined.
  StratumTallies pooled;
  for (const uint64_t size : {100u, 300u}) {
    StratumTallies trial;
    trial.push_back({.size = size, .draws = 10, .hits = 1, .adaptive = true});
    pooled += trial;
  }
  EXPECT_EQ(pooled[0], (StratumTally{.size = 400,
                                     .draws = 20,
                                     .hits = 2,
                                     .adaptive = true}));
}

}  // namespace
}  // namespace vsj
