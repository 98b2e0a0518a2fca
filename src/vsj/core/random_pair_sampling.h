// RS(pop): uniform random pair sampling (paper §3.1, first baseline).
//
// Draw m pairs of vectors uniformly at random with replacement from the
// M = C(n,2) population, count the pairs meeting τ, and scale by M/m. The
// estimator is unbiased but its relative error explodes when the selectivity
// J/M drops below ~1/m — exactly the high-threshold regime the paper targets.
//
// That is SampleH of Algorithm 1 over one stratum holding all M pairs
// (N_H = M, m_H = m, stratum L empty), so RS(pop) is a pair source of
// EstimateStratified (stratified_sampling.h).

#ifndef VSJ_CORE_RANDOM_PAIR_SAMPLING_H_
#define VSJ_CORE_RANDOM_PAIR_SAMPLING_H_

#include "vsj/core/stratified_sampling.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Options of RS(pop).
struct RandomPairSamplingOptions {
  /// Absolute sample size m; 0 means `sample_size_factor · n`.
  uint64_t sample_size = 0;
  /// The paper compares at m_R = 1.5 n ("roughly the same runtime").
  double sample_size_factor = 1.5;
};

/// Uniform with-replacement pair sampling over the cross product.
class RandomPairSampling final : public StratifiedEstimator {
 public:
  RandomPairSampling(DatasetView dataset, SimilarityMeasure measure,
                     RandomPairSamplingOptions options = {});

  std::string name() const override { return "RS(pop)"; }

  uint64_t sample_size() const { return plan_.m_h; }

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;

  DatasetView dataset_;
  SimilarityMeasure measure_;
  StratifiedPlan plan_;
};

}  // namespace vsj

#endif  // VSJ_CORE_RANDOM_PAIR_SAMPLING_H_
