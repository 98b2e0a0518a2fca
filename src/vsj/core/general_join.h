// Non-self (general) join estimation (paper Appendix B.2.2, Definition 5).
//
// Two collections U, V are hashed by the *same* g into tables D_g and E_g.
// Stratum H becomes {(u, v) : g(u) = g(v)} with
// N_H = Σ_{g(B_j) = g(C_i)} b_j · c_i; sampling from H draws a matched
// bucket pair with weight b_j · c_i and one member from each side. Stratum L
// is sampled by rejection on g(u) ≠ g(v).
//
// The estimator is Algorithm 1 with the §5.1 budgets (ResolveBudget, with
// n = max(|U|, |V|)): a pair source of EstimateStratified
// (stratified_sampling.h) over the concatenated id space U ⊕ V, where u
// keeps its id and v becomes |U| + v. Every drawn pair is therefore
// (left id, right id) with the smaller id first, so the unordered
// PairMultiset key never swaps the two sides. The RS(pop) baseline,
// GeneralRandomPairSampling, is SampleH over one stratum holding all
// |U| · |V| pairs.

#ifndef VSJ_CORE_GENERAL_JOIN_H_
#define VSJ_CORE_GENERAL_JOIN_H_

#include <memory>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/util/alias_table.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// LSH-SS for J = |{(u, v) ∈ U × V : sim(u, v) ≥ τ}| (ordered pairs).
class GeneralLshSsEstimator final : public StratifiedEstimator {
 public:
  /// `left_table` / `right_table` must be built over `left` / `right` with
  /// the same family, k, and function offset (identical g); |U| + |V| must
  /// fit VectorId.
  GeneralLshSsEstimator(DatasetView left, DatasetView right,
                        const LshTable& left_table,
                        const LshTable& right_table,
                        SimilarityMeasure measure,
                        LshSsOptions options = {});

  std::string name() const override { return "LSH-SS(general)"; }

 private:
  struct MatchedBuckets {
    uint32_t left_bucket;
    uint32_t right_bucket;
  };

  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;

  // {U, V} on the heap, so a moved estimator's dataset_ stays valid.
  std::unique_ptr<const DatasetView[]> halves_;
  DatasetView dataset_;  // U ⊕ V
  const LshTable* left_table_;
  const LshTable* right_table_;
  SimilarityMeasure measure_;
  LshSsRules rules_;
  uint64_t num_pairs_h_ = 0;  // N_H = Σ over matched buckets of b_j · c_i
  std::vector<MatchedBuckets> matches_;
  std::unique_ptr<AliasTable> match_picker_;  // weight b_j · c_i
};

/// RS(pop) for general joins: uniform (u, v) ∈ U × V with replacement —
/// SampleH over one stratum holding all |U| · |V| pairs of U ⊕ V, each
/// drawn as (u, |U| + v).
class GeneralRandomPairSampling final : public StratifiedEstimator {
 public:
  /// `sample_size` 0 means DefaultRsSampleSize(max(|U|, |V|)).
  GeneralRandomPairSampling(DatasetView left,
                            DatasetView right,
                            SimilarityMeasure measure,
                            uint64_t sample_size = 0);

  std::string name() const override { return "RS(pop,general)"; }

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;

  // {U, V} on the heap, so a moved estimator's dataset_ stays valid.
  std::unique_ptr<const DatasetView[]> halves_;
  DatasetView dataset_;  // U ⊕ V
  SimilarityMeasure measure_;
  StratumRule rule_;
};

}  // namespace vsj

#endif  // VSJ_CORE_GENERAL_JOIN_H_
