// Algorithm 1 of the paper (§5) as a sum over strata, Ĵ = Σ_s Ĵ_s (Eq. 7).
// A stratum is a size N_s, a rule — SampleH's m uniform draws, or SampleL's
// adaptive sampling to δ hits with a dampening policy — and a pair source.
//
// The estimators that run it differ only in their strata, which each binds
// to one EstimateStratified call:
//   * LshSsEstimator — H and L of a static table (alias-table samplers);
//   * StreamingLshSsEstimator — H and L of the dynamic index, L drawn by
//     the live-id rejection sampler, with budgets resolved per call from
//     the live n;
//   * VirtualBucketEstimator — the union of ℓ tables' strata H (multiplicity
//     rejection) and its complement (Appendix B.2.1);
//   * GeneralLshSsEstimator — matched bucket pairs of two tables and their
//     rejection complement over the concatenated ids U ⊕ V (v ↦ |U| + v), so
//     every drawn pair is (left id, right id) with the smaller id first
//     (Appendix B.2.2);
//   * RandomPairSampling, RS(pop) — one SampleH stratum of all M pairs
//     (§3.1);
//   * GeneralRandomPairSampling, RS(pop,general) — the same over U ⊕ V,
//     each pair drawn as (u, |U| + v);
//   * AdaptiveSamplingEstimator, Adaptive — one SampleL stratum of all M
//     pairs with fixed c_s = 1 (Lipton et al.'s adaptive sampling).
// Each derives from StratifiedEstimator, which owns the Estimate /
// EstimateSweep / SharesSweeps entry points; an estimator supplies only the
// Sweep that binds its strata.
//
// Every trial reports, per τ, one StratumTally per stratum (core/estimator.h),
// and everything else it reports derives from them (FinishStratified).
//
// Every loop is multi-τ: a sampled pair's similarity does not depend on τ,
// so one draw-and-evaluate pass thresholds each pair against a whole
// τ-sweep, and each τ keeps its own hit count, SampleL stopping point,
// dampening and guarantee. A single-τ estimate is a sweep of one (same RNG
// draw order, same accumulation order).

#ifndef VSJ_CORE_STRATIFIED_SAMPLING_H_
#define VSJ_CORE_STRATIFIED_SAMPLING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/obs/obs.h"
#include "vsj/util/check.h"
#include "vsj/util/rng.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/pair_eval.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/vector_ref.h"

namespace vsj {

/// The sampling budgets of Algorithm 1, which a request may override per
/// call. Zero means "derive from n": m_H = m_L = n, δ = log₂ n (§5.1).
struct SamplingBudget {
  uint64_t sample_size_h = 0;  ///< m_H, the stratum-H sample size.
  uint64_t sample_size_l = 0;  ///< m_L, the stratum-L sample budget.
  uint64_t delta = 0;          ///< δ, the answer-size threshold.
};

/// `budget` with its zero fields derived from n (§5.1): m_H = m_L = n and
/// δ = max(1, log₂ n).
inline SamplingBudget ResolveBudget(SamplingBudget budget, uint64_t n) {
  if (budget.sample_size_h == 0) budget.sample_size_h = n;
  if (budget.sample_size_l == 0) budget.sample_size_l = n;
  if (budget.delta == 0) {
    budget.delta = static_cast<uint64_t>(
        std::max(1.0, std::log2(static_cast<double>(n))));
  }
  return budget;
}

/// How SampleL scales its count when the answer-size threshold δ was not
/// reached within the sample budget m_L.
enum class DampeningMode {
  /// Return the safe lower bound Ĵ_L = n_L (plain LSH-SS, Theorem 1).
  kSafeLowerBound,
  /// Ĵ_L = n_L · c_s · (N_L / m_L) with fixed c_s (Theorem 2).
  kFixedFactor,
  /// c_s = n_L / δ, the adaptive choice used for LSH-SS(D) in §6.
  kAdaptiveNlOverDelta,
};

/// Options of LSH-SS: the sampling budgets plus the dampening policy.
struct LshSsOptions : SamplingBudget {
  DampeningMode dampening = DampeningMode::kSafeLowerBound;
  /// c_s for DampeningMode::kFixedFactor (must be in (0, 1]).
  double dampening_factor = 1.0;
};

/// How one stratum is sampled: SampleH's m uniform draws, or (`adaptive`)
/// SampleL's draws until δ hits or the budget m, scaled by `dampening` when
/// δ is missed.
struct StratumRule {
  bool adaptive = false;
  uint64_t m = 0;      ///< m_H draws, or the SampleL budget m_L
  uint64_t delta = 0;  ///< δ, the answer-size threshold (adaptive only)
  DampeningMode dampening = DampeningMode::kSafeLowerBound;
  double dampening_factor = 1.0;  ///< c_s of kFixedFactor
};

/// LSH-SS's two rules, SampleH over stratum H and SampleL over stratum L,
/// with `options`' budgets resolved from n (ResolveBudget).
struct LshSsRules {
  StratumRule h, l;
};

inline LshSsRules MakeLshSsRules(const LshSsOptions& options, uint64_t n) {
  if (options.dampening == DampeningMode::kFixedFactor) {
    VSJ_CHECK_MSG(
        options.dampening_factor > 0.0 && options.dampening_factor <= 1.0,
        "dampening factor c_s must be in (0, 1]");
  }
  const SamplingBudget budget = ResolveBudget(options, n);
  return {.h = {.m = budget.sample_size_h},
          .l = {.adaptive = true,
                .m = budget.sample_size_l,
                .delta = budget.delta,
                .dampening = options.dampening,
                .dampening_factor = options.dampening_factor}};
}

/// Ĵ_s of one trial's stratum from its tally. SampleH scales up,
/// n_H · N_H / m_H; so does a SampleL that reached δ, n_L · N_L / i, under
/// the adaptive bound of Lipton et al. Otherwise scaling up by N_L / i
/// carries no guarantee (Example 1 of the paper), and `dampening` picks the
/// safe lower bound n_L or the dampened scale-up n_L · c_s · N_L / m_L of
/// Theorem 2. A stratum that drew nothing contributes 0.
inline double StratumEstimate(const StratumTally& tally,
                              const StratumRule& rule) {
  if (tally.draws == 0) return 0.0;
  const auto hits = static_cast<double>(tally.hits);
  const auto size = static_cast<double>(tally.size);
  if (!rule.adaptive || tally.reached != 0) {
    return hits * size / static_cast<double>(tally.draws);
  }
  if (rule.dampening == DampeningMode::kSafeLowerBound) return hits;
  const double cs = rule.dampening == DampeningMode::kFixedFactor
                        ? rule.dampening_factor
                        : hits / static_cast<double>(rule.delta);
  return hits * cs * size / static_cast<double>(rule.m);
}

/// The confidence of an estimate's interval of J (EstimateInterval).
inline constexpr double kIntervalConfidence = 0.95;

/// The normal quantile each stratum's interval is taken at, by the number
/// of strata S: the z with P(Z > z) = (1 − kIntervalConfidence) / (2S) for
/// a standard normal Z. Each of the S strata then misses its J_s with
/// probability at most (1 − kIntervalConfidence) / S, split evenly between
/// its two ends, so the sum of the strata's intervals holds J with
/// probability at least kIntervalConfidence (Bonferroni).
inline constexpr double kIntervalZ[kMaxStrata] = {
    1.959963984540054,   // S = 1: tail 0.025
    2.2414027276049446,  // S = 2: tail 0.0125
};

/// A closed interval [lower, upper].
struct Interval {
  double lower = 0.0;
  double upper = 0.0;
};

/// The Wilson score bounds of a binomial proportion from `hits` of `draws`
/// at normal quantile `z`, within [0, 1]; [0, 1] when nothing was drawn.
inline Interval WilsonInterval(uint64_t hits, uint64_t draws, double z) {
  if (draws == 0) return {0.0, 1.0};
  const auto n = static_cast<double>(draws);
  const double p = static_cast<double>(hits) / n;
  const double z2 = z * z;
  const double center = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
  const double half = z / (1.0 + z2 / n) *
                      std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

/// J_s's interval from its stratum's tally pooled over `trials` trials, at
/// normal quantile `z` on each side: the Wilson interval on the pooled
/// hits / draws, scaled by the mean N_s over the trials (StratumTally pools
/// N_s as a sum). For SampleL that reached δ in every trial this stands in
/// for Lipton et al.'s bound: δ hits per trial, pooled over the trials,
/// are the binomial count Wilson reads. A SampleL that missed δ in any
/// trial answers Theorem 1's safe lower bound, the mean n_L, which can lie
/// below the Wilson lower end; the lower end drops to it then. It cannot
/// stand in for the Wilson end: n_L counts repeated hits, so it can pass
/// J_L.
inline Interval StratumInterval(const StratumTally& pooled, uint64_t trials,
                                double z) {
  if (pooled.size == 0 || trials == 0) return {};
  const auto n = static_cast<double>(trials);
  const double mean_size = static_cast<double>(pooled.size) / n;
  const Interval p = WilsonInterval(pooled.hits, pooled.draws, z);
  Interval j = {p.lower * mean_size, p.upper * mean_size};
  if (pooled.adaptive && pooled.reached < trials) {
    j.lower = std::min(j.lower, static_cast<double>(pooled.hits) / n);
  }
  return j;
}

/// The interval of J from a response's strata pooled over `trials` trials:
/// the sum of the strata's intervals at kIntervalZ, rounded outward to
/// whole pairs — J is a count, so [⌊lower⌋, ⌈upper⌉] holds every J the
/// unrounded interval holds — and clamped to [0, M] for M the mean Σ_s N_s.
inline Interval EstimateInterval(const StratumTallies& pooled,
                                 uint64_t trials) {
  if (pooled.size() == 0 || trials == 0) return {};
  const double z = kIntervalZ[pooled.size() - 1];
  Interval sum;
  uint64_t total_size = 0;
  for (size_t s = 0; s < pooled.size(); ++s) {
    const Interval stratum = StratumInterval(pooled[s], trials, z);
    sum.lower += stratum.lower;
    sum.upper += stratum.upper;
    total_size += pooled[s].size;
  }
  const double max_pairs =
      static_cast<double>(total_size) / static_cast<double>(trials);
  return {std::clamp(std::floor(sum.lower), 0.0, max_pairs),
          std::clamp(std::ceil(sum.upper), 0.0, max_pairs)};
}

/// One stratum of Algorithm 1: N_s = `size` pairs, sampled by `rule`
/// through `draw` (any callable Rng& -> VectorPair-like with .first/.second
/// positions into the dataset, drawing uniformly from the stratum).
template <typename PairSource>
struct Stratum {
  uint64_t size;
  StratumRule rule;
  PairSource draw;
};

template <typename PairSource>
Stratum(uint64_t, StratumRule, PairSource) -> Stratum<PairSource>;

/// Most distinct pairs SampleH's per-trial PairMultiset holds before it
/// drains; bounds the table at ~1.5 MB per trial whatever N_H and m_H a
/// request asks for.
inline constexpr uint64_t kMaxDistinctPairsH = uint64_t{1} << 16;

/// The distinct unordered pairs among a run of stratum-H draws, each with
/// the number of draws that named it, in first-draw order. An
/// open-addressing table over (min id, max id) keys: a draw and its
/// swapped orientation are one pair, which is sound because every measure
/// is bit-symmetric (pair_eval_test pins Similarity(u, v) ==
/// Similarity(v, u)). Sized once for one trial: it holds at most
/// min(N_H, m_h, kMaxDistinctPairsH) pairs — no trial names more than N_H
/// or m_h distinct ones — and Add refuses a new pair once full, so the
/// caller drains it (Clear) and adds again.
class PairMultiset {
 public:
  PairMultiset(uint64_t num_pairs_h, uint64_t m_h)
      : limit_(std::min({num_pairs_h, m_h, kMaxDistinctPairsH})) {
    uint64_t capacity = 16;
    while (capacity < 2 * limit_) capacity *= 2;
    slots_.assign(capacity, 0);
  }

  /// Counts one draw of {a, b}; false, counting nothing, when the pair is
  /// new and the table already holds its limit.
  bool Add(VectorId a, VectorId b) {
    const uint64_t key = a < b ? (uint64_t{a} << 32) | b
                               : (uint64_t{b} << 32) | a;
    const uint64_t mask = slots_.size() - 1;
    for (uint64_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      if (slots_[s] == 0) {
        if (keys_.size() == limit_) return false;
        keys_.push_back(key);
        counts_.push_back(1);
        slots_[s] = static_cast<uint32_t>(keys_.size());
        return true;
      }
      if (keys_[slots_[s] - 1] == key) {
        ++counts_[slots_[s] - 1];
        return true;
      }
    }
  }

  void Clear() {
    keys_.clear();
    counts_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

  size_t size() const { return keys_.size(); }
  size_t capacity() const { return slots_.size(); }
  VectorId first(size_t i) const {
    return static_cast<VectorId>(keys_[i] >> 32);
  }
  VectorId second(size_t i) const { return static_cast<VectorId>(keys_[i]); }
  uint64_t count(size_t i) const { return counts_[i]; }

 private:
  static uint64_t Hash(uint64_t key) {
    return (key * 0x9e3779b97f4a7c15ULL) >> 32;
  }

  uint64_t limit_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> slots_;  // 1 + index into keys_; 0 is empty
};

/// SampleH of Algorithm 1 for every τ of a sweep at once: draw m_h =
/// `stratum.rule.m` pairs of N_H = `stratum.size`, evaluate each distinct
/// pair's similarity once, and count its hits against every τ. Tally j
/// holds N_H, the m_h draws, the evaluations and τ j's hits n_H(τ_j) — the
/// sample it would have drawn alone, since the m_h draws never depend on τ.
/// An empty or unsampled stratum (N_H = 0 or m_h = 0) draws nothing.
///
/// The draws collapse into a PairMultiset: each distinct unordered pair is
/// evaluated once and τ j counts Σ multiplicity · [sim ≥ τ_j]. When the
/// stratum holds fewer pairs than the trial draws (N_H < m_h, e.g. the
/// §5.1 default m_H = n over a sparse table) repeats are certain
/// (pigeonhole) and the table never fills; otherwise repeats are merely
/// possible, and a table that reaches kMaxDistinctPairsH is drained
/// (evaluated) and refilled, so memory stays bounded and a pair repeated
/// across a drain is evaluated once per drain.
///
/// Evaluation is batched through the locality-ordered SIMD batch kernel
/// (vector/pair_eval.h), up to kPairEvalBatch pairs at a time. Bit-identity
/// is preserved because stratum-H draws never depend on evaluation results
/// — the RNG consumes exactly the same sequence as the draw-evaluate-draw
/// loop — and each hit count is an integer, order-insensitive sum, so
/// every Ĵ_H is the same double.
template <typename PairSource>
std::vector<StratumTally> SampleStratumH(DatasetView dataset,
                                         SimilarityMeasure measure,
                                         std::span<const double> taus,
                                         const Stratum<PairSource>& stratum,
                                         Rng& rng) {
  const uint64_t num_pairs_h = stratum.size;
  const uint64_t m_h = stratum.rule.m;
  std::vector<StratumTally> tallies(taus.size(), {.size = num_pairs_h});
  if (num_pairs_h == 0 || m_h == 0) return tallies;
  VectorId firsts[kPairEvalBatch];
  VectorId seconds[kPairEvalBatch];
  uint64_t multiplicities[kPairEvalBatch];
  double similarities[kPairEvalBatch];
  size_t pending = 0;
  uint64_t evaluated = 0;
  const auto evaluate = [&] {
    EvaluatePairSimilarities(measure, dataset, firsts, seconds, pending,
                             similarities);
    for (size_t j = 0; j < taus.size(); ++j) {
      for (uint64_t mask = SimilarityHitMask(similarities, pending, taus[j]);
           mask != 0; mask &= mask - 1) {
        tallies[j].hits += multiplicities[__builtin_ctzll(mask)];
      }
    }
    evaluated += pending;
    pending = 0;
  };
  PairMultiset distinct(num_pairs_h, m_h);
  const auto drain = [&] {
    for (size_t i = 0; i < distinct.size(); ++i) {
      firsts[pending] = distinct.first(i);
      seconds[pending] = distinct.second(i);
      multiplicities[pending] = distinct.count(i);
      if (++pending == kPairEvalBatch) evaluate();
    }
    distinct.Clear();
  };
  for (uint64_t d = 0; d < m_h; ++d) {
    const auto pair = stratum.draw(rng);
    if (!distinct.Add(pair.first, pair.second)) {
      drain();
      distinct.Add(pair.first, pair.second);
    }
  }
  drain();
  if (pending > 0) evaluate();
  for (StratumTally& tally : tallies) {
    tally.draws = m_h;
    tally.evaluated = evaluated;
  }
  return tallies;
}

/// Index of the n-th (1-based) set bit of `mask`; requires popcount >= n.
inline uint64_t NthSetBit(uint64_t mask, uint64_t n) {
  for (; n > 1; --n) mask &= mask - 1;
  return static_cast<uint64_t>(__builtin_ctzll(mask));
}

/// SampleL of Algorithm 1 for every τ of a sweep at once: adaptive
/// sampling of N_L = `stratum.size` pairs until δ = `stratum.rule.delta`
/// true pairs are found or the budget m_l = `stratum.rule.m` is exhausted.
/// Tally j holds N_L, τ j's own sample count i_j, its hits n_L(τ_j) and
/// whether it reached δ. Degenerate budgets (m_l = 0 or δ = 0) and an empty
/// stratum draw nothing: Ĵ_L is 0, where the scale-up would be 0 · N_L / 0,
/// and a non-empty stratum that missed δ leaves the estimate unguaranteed
/// (FinishStratified). Service engines refuse those budgets at request
/// validation; the guard covers direct template callers.
///
/// The draws form one stream that does not depend on τ; each τ consumes a
/// prefix of it and stops on its own δ-th hit (or at m_l). The stream runs
/// until the last τ still active stops, so every τ sees exactly the draws,
/// hits and stopping point it would see alone, and a sweep of one is the
/// single-τ algorithm.
///
/// Unlike stratum H, how many pairs this loop draws depends on each
/// evaluation (the hits-vs-δ race), so drawing a batch ahead consumes RNG
/// state the unbatched loop never would. The batched form stays
/// bit-identical anyway by *rewinding*: the RNG state is checkpointed
/// before every draw, and when the last active τ reaches δ at draw i of the
/// batch, the RNG is restored to its post-draw-i checkpoint — exactly where
/// the draw-evaluate-draw loop would have left it — and the evaluations
/// past i are discarded. Hits, samples, the RNG stream, and therefore every
/// estimate are unchanged; only wasted evaluations differ, bounded by one
/// batch per call. Tally j's `evaluated` is what τ j's pass alone evaluated:
/// its i_j draws and the rest of the batch it stopped in, min(⌈i_j / 64⌉ ·
/// 64, m_l). The shared pass evaluates the most any τ did, so a sweep's
/// tallies equal its τs' tallies alone, and `estimate.pairs_l_discarded`
/// derives from them (FinishStratified).
///
/// Contract note for `stratum.draw`: within one batch it may be invoked up
/// to kPairEvalBatch times even when the unbatched loop would have stopped
/// earlier, and it is never invoked again after the rewind — so it must
/// draw as a pure function of the RNG state (true of the engine samplers;
/// scripted test sources are safe because a script of length m_l is never
/// over-consumed: batches never draw past the m_l budget).
template <typename PairSource>
std::vector<StratumTally> SampleStratumL(DatasetView dataset,
                                         SimilarityMeasure measure,
                                         std::span<const double> taus,
                                         const Stratum<PairSource>& stratum,
                                         Rng& rng) {
  const uint64_t m_l = stratum.rule.m;
  const uint64_t delta = stratum.rule.delta;
  std::vector<StratumTally> tallies(taus.size(),
                                    {.size = stratum.size, .adaptive = true});
  if (stratum.size == 0 || m_l == 0 || delta == 0) return tallies;

  // Per τ, n_L and i of Algorithm 1 are its tally's hits and draws. A τ is
  // active until it reaches δ; every active τ has consumed the whole
  // stream drawn so far.
  std::vector<size_t> active(taus.size());
  for (size_t j = 0; j < active.size(); ++j) active[j] = j;
  uint64_t drawn = 0;
  VectorId firsts[kPairEvalBatch];
  VectorId seconds[kPairEvalBatch];
  double similarities[kPairEvalBatch];
  Rng checkpoints[kPairEvalBatch];
  while (!active.empty() && drawn < m_l) {
    const uint64_t want = std::min(kPairEvalBatch, m_l - drawn);
    for (uint64_t i = 0; i < want; ++i) {
      checkpoints[i] = rng;
      const auto pair = stratum.draw(rng);
      firsts[i] = pair.first;
      seconds[i] = pair.second;
    }
    EvaluatePairSimilarities(measure, dataset, firsts, seconds, want,
                             similarities);
    uint64_t used = 0;  // draws of this batch some τ consumed
    size_t still_active = 0;
    for (const size_t j : active) {
      StratumTally& tally = tallies[j];
      const uint64_t mask = SimilarityHitMask(similarities, want, taus[j]);
      const auto batch_hits =
          static_cast<uint64_t>(__builtin_popcountll(mask));
      if (tally.hits + batch_hits >= delta) {
        // δ reached inside the batch: the draw the unbatched loop would
        // have stopped on is this τ's (δ − hits)-th hit of the batch.
        const uint64_t stop = NthSetBit(mask, delta - tally.hits);
        tally.hits = delta;
        tally.draws = drawn + stop + 1;
        tally.reached = 1;
        used = std::max(used, stop + 1);
      } else {
        tally.hits += batch_hits;
        used = want;
        active[still_active++] = j;
      }
    }
    active.resize(still_active);
    if (used < want) {
      // Every τ stopped inside this batch: rewind to just after the last
      // stopping draw.
      rng = checkpoints[used];
    }
    drawn += used;
  }
  for (const size_t j : active) tallies[j].draws = drawn;  // m_l spent
  for (StratumTally& tally : tallies) {
    tally.evaluated = std::min(
        m_l, (tally.draws + kPairEvalBatch - 1) / kPairEvalBatch *
                 kPairEvalBatch);
  }
  return tallies;
}

/// What a trial reports beyond its tallies, derived from them in one place.
/// Per τ: Ĵ = Σ_s Ĵ_s clamped to [0, M] (Eq. 7), the draws as
/// pairs_evaluated, and `guaranteed` cleared when a non-empty SampleL
/// stratum missed δ. Per stratum, the estimate.* sampling counters, which
/// count physical work: one pass serves every τ, so its draws and
/// evaluations count once — the most any τ used — and a stratum that drew
/// nothing counts nothing.
inline void FinishStratified(std::span<const StratumRule> rules,
                             uint64_t total_pairs,
                             std::span<EstimationResult> results) {
  for (EstimationResult& result : results) {
    double estimate = 0.0;
    for (size_t s = 0; s < rules.size(); ++s) {
      const StratumTally& tally = result.strata[s];
      estimate += StratumEstimate(tally, rules[s]);
      result.pairs_evaluated += tally.draws;
      if (rules[s].adaptive && tally.size > 0 && tally.reached == 0) {
        result.guaranteed = false;
      }
    }
    result.estimate = ClampEstimate(estimate, total_pairs);
  }
  if (!obs::MetricsEnabled()) return;
  for (size_t s = 0; s < rules.size(); ++s) {
    uint64_t draws = 0, evaluated = 0, reached = 0;
    for (const EstimationResult& result : results) {
      draws = std::max(draws, result.strata[s].draws);
      evaluated = std::max(evaluated, result.strata[s].evaluated);
      reached += result.strata[s].reached;
    }
    if (draws == 0) continue;
    if (!rules[s].adaptive) {
      VSJ_COUNTER_ADD("estimate.pairs_h", evaluated);
      if (draws > evaluated) {
        VSJ_COUNTER_ADD("estimate.pairs_h_repeats", draws - evaluated);
      }
      continue;
    }
    VSJ_COUNTER_ADD("estimate.pairs_l", draws);
    if (evaluated > draws) {
      VSJ_COUNTER_ADD("estimate.pairs_l_discarded", evaluated - draws);
    }
    if (reached > 0) VSJ_COUNTER_ADD("estimate.sample_l_early_exit", reached);
    if (reached < results.size()) {
      VSJ_COUNTER_ADD("estimate.sample_l_dampened", results.size() - reached);
    }
  }
}

/// Algorithm 1 for every τ of `taus` from one pass: each stratum in list
/// order on `rng`, SampleH or SampleL by its rule, then FinishStratified
/// over M = Σ_s N_s. Result j is bit-identical to a sweep of taus[j] alone
/// on the same `rng` state, tallies included. A τ <= 0 admits every pair:
/// it is answered M without sampling or tallies and stays out of the
/// shared pass, so it never changes what the other τ draw.
template <typename... PairSources>
std::vector<EstimationResult> EstimateStratified(
    DatasetView dataset, SimilarityMeasure measure,
    std::span<const double> taus, Rng& rng,
    const Stratum<PairSources>&... strata) {
  static_assert(sizeof...(PairSources) <= kMaxStrata);
  const uint64_t total_pairs = (strata.size + ...);
  const StratumRule rules[] = {strata.rule...};
  std::vector<EstimationResult> results(taus.size());
  std::vector<double> sampled_taus;
  std::vector<size_t> slot_of;  // sampled index -> results index
  for (size_t j = 0; j < taus.size(); ++j) {
    if (taus[j] <= 0.0) {
      results[j].estimate = static_cast<double>(total_pairs);
    } else {
      sampled_taus.push_back(taus[j]);
      slot_of.push_back(j);
    }
  }
  if (sampled_taus.empty()) return results;

  std::vector<EstimationResult> sampled(sampled_taus.size());
  const auto sample = [&](const auto& stratum) {
    const std::vector<StratumTally> tallies =
        stratum.rule.adaptive
            ? SampleStratumL(dataset, measure, sampled_taus, stratum, rng)
            : SampleStratumH(dataset, measure, sampled_taus, stratum, rng);
    for (size_t k = 0; k < sampled.size(); ++k) {
      sampled[k].strata.push_back(tallies[k]);
    }
  };
  (sample(strata), ...);
  FinishStratified(rules, total_pairs, sampled);
  for (size_t k = 0; k < sampled.size(); ++k) results[slot_of[k]] = sampled[k];
  return results;
}

/// Base of the Algorithm 1 estimators: the entry points are one shared
/// Sweep over `taus`. A single-τ Estimate is a sweep of one and advances
/// `rng` past it; EstimateSweep runs on a copy of `rng`, so result j is
/// bit-identical to Estimate(taus[j], copy of rng).
class StratifiedEstimator : public JoinSizeEstimator {
 public:
  EstimationResult Estimate(double tau, Rng& rng) const final {
    return Sweep({&tau, 1}, rng).front();
  }
  std::vector<EstimationResult> EstimateSweep(std::span<const double> taus,
                                              const Rng& rng) const final {
    Rng copy = rng;
    return Sweep(taus, copy);
  }
  bool SharesSweeps() const final { return true; }

 private:
  /// Algorithm 1 over `taus` (EstimateStratified with the estimator's pair
  /// sources), advancing `rng` past the shared pass.
  virtual std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                              Rng& rng) const = 0;
};

}  // namespace vsj

#endif  // VSJ_CORE_STRATIFIED_SAMPLING_H_
