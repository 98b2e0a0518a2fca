// LC: Lattice Counting adapted to the VSJ problem (paper §3.2).
//
// Lee, Ng & Shim (PVLDB 2009) estimate SSJ size by analyzing the lattice of
// signature-position agreements of a Min-Hash signature database under a
// power-law similarity model. The 2011 paper treats LC as a black box whose
// only requirement is that signature agreement be proportional to similarity
// — i.e. an LSH signature database.
//
// This implementation follows that spirit:
//   1. Build sig(v) = (h_1(v), ..., h_k(v)) for every vector.
//   2. For t = 1..T, compute the *lattice count* of order t: the number of
//      pairs agreeing simultaneously on a t-subset of positions, averaged
//      over sampled subsets and counted exactly by hashing the projected
//      signatures (Σ_groups C(c, 2), honoring the min-support ξ). Its
//      expectation is the t-th moment Σ_pairs p(sim)^t of the per-function
//      collision probability over all pairs.
//   3. Fit a truncated power-law density g(x) = A·x^a of collision
//      probabilities on [p(0), 1] by moment matching (exact 1-D solve).
//   4. Report Ĵ(τ) = ∫_{p(τ)}^1 g(x) dx.
//
// As the paper observes (§6.2), binary cosine-LSH functions compress the
// collision-probability range to [0.5, 1], which conditions the fit poorly —
// LC systematically underestimates there. The benches reproduce exactly that.

#ifndef VSJ_CORE_LATTICE_COUNTING_H_
#define VSJ_CORE_LATTICE_COUNTING_H_

#include <memory>

#include "vsj/core/estimator.h"
#include "vsj/lsh/lsh_family.h"
#include "vsj/lsh/signature.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Lattice moment orders LC measures: the two FitPowerLaw reads, M_1, M_2.
inline constexpr uint32_t kLatticeMoments = 2;

/// Position subsets sampled per moment order t ≥ 2 (t = 1 uses all k).
inline constexpr uint32_t kLatticeSubsetsPerOrder = 8;

/// Options of LC.
struct LatticeCountingOptions {
  /// Signature length k; 0 means 20 (the paper's default table width).
  uint32_t signature_length = 0;
  /// Minimum support ξ: groups smaller than ξ vectors are ignored when
  /// counting agreements (the LC(ξ) parameter of §6.1).
  uint32_t min_support = 2;
};

/// The Lattice-Counting estimator. Signature construction happens once at
/// build time; Estimate() only re-evaluates the power-law fit integral.
class LatticeCountingEstimator final : public JoinSizeEstimator {
 public:
  LatticeCountingEstimator(DatasetView dataset,
                           const LshFamily& family,
                           LatticeCountingOptions options = {});

  EstimationResult Estimate(double tau, Rng& rng) const override;
  std::string name() const override { return "LC"; }

  /// The measured lattice moments M_t = Σ_pairs p(sim)^t, t = 1-based.
  const std::vector<double>& moments() const { return moments_; }

 private:
  void ComputeMoments(DatasetView dataset, const LshFamily& family,
                      const LatticeCountingOptions& options);
  void FitPowerLaw();

  uint64_t total_pairs_;
  double x_min_;  // p(0): smallest possible collision probability
  std::vector<double> moments_;
  // Fitted g(x) = scale_ · x^exponent_ on [x_min, 1].
  double exponent_ = 0.0;
  double scale_ = 0.0;
  const LshFamily* family_;
};

}  // namespace vsj

#endif  // VSJ_CORE_LATTICE_COUNTING_H_
