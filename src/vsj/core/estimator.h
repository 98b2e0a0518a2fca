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

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vsj/util/rng.h"

namespace vsj {

/// What one stratum of a stratified estimate (core/stratified_sampling.h)
/// drew for one τ in one trial. Pooled over a request's trials, every count
/// is the sum over those trials, `size` included: the streaming engine's
/// trial t samples table t mod ℓ, whose N_s is its own, so the pooled N_s
/// is Σ_t N_s and its mean over the trials is what an interval scales by.
struct StratumTally {
  uint64_t size = 0;       ///< N_s, the pairs in the stratum
  uint64_t draws = 0;      ///< pairs drawn for this τ: m_H, or SampleL's i
  uint64_t evaluated = 0;  ///< similarity evaluations those draws cost
  uint64_t hits = 0;       ///< draws at or above τ, repeats included
  /// 1 when SampleL met δ (pooled: such trials), and whether the stratum
  /// is SampleL's rather than SampleH's; one word, as a response holds two
  /// tallies and a server holds many responses.
  uint64_t reached : 63 = 0;
  uint64_t adaptive : 1 = 0;

  bool operator==(const StratumTally&) const = default;
};

/// Most strata of a stratified estimate: H and L.
inline constexpr size_t kMaxStrata = 2;

/// A result's tallies, one per stratum in sampling order, stored inline so
/// that neither a result nor a cached response allocates for them.
class StratumTallies {
 public:
  void push_back(const StratumTally& tally) { tallies_.at(size_++) = tally; }
  size_t size() const { return size_; }
  const StratumTally& operator[](size_t s) const { return tallies_[s]; }

  /// Pools another trial of the same estimate, stratum by stratum.
  StratumTallies& operator+=(const StratumTallies& other) {
    size_ = other.size_;
    for (size_t s = 0; s < size_; ++s) {
      const StratumTally& add = other.tallies_[s];
      StratumTally& sum = tallies_[s];
      sum = {sum.size + add.size,         sum.draws + add.draws,
             sum.evaluated + add.evaluated, sum.hits + add.hits,
             sum.reached + add.reached,     add.adaptive};
    }
    return *this;
  }
  bool operator==(const StratumTallies&) const = default;

 private:
  std::array<StratumTally, kMaxStrata> tallies_{};
  size_t size_ = 0;
};

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

  /// One tally per stratum of a stratified estimator, from which its Ĵ,
  /// pairs_evaluated and `guaranteed` derive; empty for the others.
  StratumTallies strata;
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
