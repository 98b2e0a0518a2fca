// Common interface of all join-size estimators (the VSJ problem, Def. 1).
//
// An estimator is constructed over a dataset (and whatever auxiliary
// structure it needs — an LSH table, signatures, nothing) and then queried
// for any similarity threshold τ. `Estimate` is const and takes the RNG by
// reference, so one estimator instance supports repeated independent trials,
// matching how a query optimizer would hold a long-lived statistics object.
// `EstimateSweep` asks for many τ at once, the optimizer's plan-costing
// pattern. `TrialStream` is the one stream convention for repeated trials,
// shared by the serving engines and the paper harness (eval/experiment.h),
// so a figure cell and a served answer are the same computation.

#ifndef VSJ_CORE_ESTIMATOR_H_
#define VSJ_CORE_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vsj/util/rng.h"

namespace vsj {

/// Outcome of one estimation call.
struct EstimationResult {
  /// The join size estimate Ĵ.
  double estimate = 0.0;

  /// Number of pair similarity evaluations performed (the sampling cost
  /// model of the paper: similarity joins must actually compare pairs).
  uint64_t pairs_evaluated = 0;

  /// False when the estimator knowingly returned a conservative value, e.g.
  /// LSH-SS's safe lower bound when SampleL could not meet the answer-size
  /// threshold δ (paper §5.1.2), or LSH-S when no true pair was sampled.
  bool guaranteed = true;

  /// Diagnostics for stratified estimators: Ĵ_H and Ĵ_L of Equation (7).
  /// Zero for non-stratified estimators.
  double stratum_h_estimate = 0.0;
  double stratum_l_estimate = 0.0;
};

/// Abstract join-size estimator.
class JoinSizeEstimator {
 public:
  virtual ~JoinSizeEstimator() = default;

  /// Estimates J(τ). Implementations must clamp to [0, M].
  virtual EstimationResult Estimate(double tau, Rng& rng) const = 0;

  /// Estimates J(τ) for every τ of a sweep from one RNG state: result j is
  /// bit-identical to Estimate(taus[j], copy of rng). The default does
  /// exactly that, one τ at a time; StratifiedEstimator
  /// (core/stratified_sampling.h) overrides it to draw and evaluate each
  /// sampled pair once for the whole sweep.
  virtual std::vector<EstimationResult> EstimateSweep(
      std::span<const double> taus, const Rng& rng) const;

  /// True when EstimateSweep shares sampling work across τ, so grouping
  /// requests that differ only in τ saves work (the StratifiedEstimators).
  virtual bool SharesSweeps() const { return false; }

  /// Display name, e.g. "LSH-SS", "RS(pop)".
  virtual std::string name() const = 0;
};

/// The one stream convention: trial t of a repeated estimate with `seed`
/// draws from Rng(seed).Fork(0).Fork(t) — a pure function of (seed, t), so
/// trials may run in any order or on any thread, and adding trials never
/// perturbs earlier ones.
Rng TrialStream(uint64_t seed, size_t t);

/// Clamps a raw estimate into the feasible range [0, max_pairs].
double ClampEstimate(double estimate, uint64_t max_pairs);

}  // namespace vsj

#endif  // VSJ_CORE_ESTIMATOR_H_
