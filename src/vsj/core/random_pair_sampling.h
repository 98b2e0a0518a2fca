// RS(pop): uniform random pair sampling (paper §3.1, first baseline).
//
// Draw m pairs of vectors uniformly at random with replacement from the
// M = C(n,2) population, count the pairs meeting τ, and scale by M/m. The
// estimator is unbiased but its relative error explodes when the selectivity
// J/M drops below ~1/m — exactly the high-threshold regime the paper targets.
//
// That is SampleH of Algorithm 1 over one stratum holding all M pairs, so
// RS(pop) is a one-stratum EstimateStratified (stratified_sampling.h).

#ifndef VSJ_CORE_RANDOM_PAIR_SAMPLING_H_
#define VSJ_CORE_RANDOM_PAIR_SAMPLING_H_

#include <cmath>
#include <cstdint>

#include "vsj/core/stratified_sampling.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// The default pair budget of the random-sampling baselines, in units of
/// n: the paper compares RS at m_R = 1.5 n ("roughly the same runtime" as
/// LSH-SS, §6).
inline constexpr double kRsSampleSizeFactor = 1.5;

/// kRsSampleSizeFactor · n, rounded to the nearest integer.
inline uint64_t DefaultRsSampleSize(uint64_t n) {
  return static_cast<uint64_t>(
      std::llround(kRsSampleSizeFactor * static_cast<double>(n)));
}

/// Options of RS(pop).
struct RandomPairSamplingOptions {
  /// Absolute sample size m; 0 means DefaultRsSampleSize(n).
  uint64_t sample_size = 0;
};

/// Uniform with-replacement pair sampling over the cross product.
class RandomPairSampling final : public StratifiedEstimator {
 public:
  RandomPairSampling(DatasetView dataset, SimilarityMeasure measure,
                     RandomPairSamplingOptions options = {});

  std::string name() const override { return "RS(pop)"; }

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;

  DatasetView dataset_;
  SimilarityMeasure measure_;
  StratumRule rule_;
};

}  // namespace vsj

#endif  // VSJ_CORE_RANDOM_PAIR_SAMPLING_H_
