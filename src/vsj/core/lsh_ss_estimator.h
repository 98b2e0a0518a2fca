// LSH-SS: stratified sampling over an LSH table (paper §5, Algorithm 1 —
// the paper's main contribution).
//
// The table partitions the M pairs into stratum H (same bucket) and stratum
// L (different buckets); Ĵ = Ĵ_H + Ĵ_L (Eq. 7).
//
//   SampleH — uniform random sampling in H: draw a bucket with weight
//     C(b_j, 2), then a uniform pair inside it; Ĵ_H = n_H · N_H / m_H.
//     P(T|H) stays ≳ log n / n even at τ = 0.9 (Table 1), so m_H = n
//     samples give the Chernoff guarantee of Lemma 1.
//
//   SampleL — adaptive sampling in L: draw uniform cross-bucket pairs until
//     δ true pairs are found (reliable: Ĵ_L = n_L · N_L / i) or the budget
//     m_L is exhausted. In the latter case the scaled-up estimate is NOT
//     trustworthy and the algorithm returns a *safe lower bound* Ĵ_L = n_L
//     (paper's novelty), or optionally a dampened scale-up
//     Ĵ_L = n_L · c_s · N_L / m_L — the LSH-SS(D) variant of Theorem 2.
//
// Defaults follow §5.1: m_H = m_L = n, δ = log₂ n (ResolveBudget), c_s =
// n_L/δ for D.

#ifndef VSJ_CORE_LSH_SS_ESTIMATOR_H_
#define VSJ_CORE_LSH_SS_ESTIMATOR_H_

#include "vsj/core/estimator.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Algorithm 1 (LSH-SS / LSH-SS(D)).
class LshSsEstimator final : public StratifiedEstimator {
 public:
  /// `table` must be built over `dataset`; the join predicate is `measure`.
  LshSsEstimator(DatasetView dataset, const LshTable& table,
                 SimilarityMeasure measure, LshSsOptions options = {});

  std::string name() const override;

  uint64_t delta() const { return rules_.l.delta; }

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;

  DatasetView dataset_;
  const LshTable* table_;
  SimilarityMeasure measure_;
  LshSsRules rules_;
};

}  // namespace vsj

#endif  // VSJ_CORE_LSH_SS_ESTIMATOR_H_
