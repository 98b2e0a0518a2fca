// Adaptive sampling (Lipton, Naughton & Schneider, SIGMOD 1990) as a
// standalone baseline.
//
// Sampling terminates when the *accumulated answer size* reaches a threshold
// δ rather than when a fixed number of samples is drawn; the estimate
// hits · (population / samples) then carries the error bounds of Theorems
// 2.1/2.2 of that paper. This is SampleL of Algorithm 1 (paper §5.1.2) over
// one stratum holding all M pairs, with dampening c_s = 1, so a run that
// misses δ returns the plain scale-up hits · M / m_L flagged
// `guaranteed = false` (their "loose upper bound" case). The estimator is
// a one-stratum EstimateStratified (stratified_sampling.h).

#ifndef VSJ_CORE_ADAPTIVE_SAMPLING_H_
#define VSJ_CORE_ADAPTIVE_SAMPLING_H_

#include <cstdint>

#include "vsj/core/stratified_sampling.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Options of the standalone adaptive-sampling baseline estimator.
struct AdaptiveSamplingOptions {
  /// Answer-size threshold δ; 0 means log₂ n.
  uint64_t delta = 0;
  /// Maximum sample size; 0 means n.
  uint64_t max_samples = 0;
};

/// Standalone adaptive-sampling estimator over the full pair population.
class AdaptiveSamplingEstimator final : public StratifiedEstimator {
 public:
  AdaptiveSamplingEstimator(DatasetView dataset,
                            SimilarityMeasure measure,
                            AdaptiveSamplingOptions options = {});

  std::string name() const override { return "Adaptive"; }

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;

  DatasetView dataset_;
  SimilarityMeasure measure_;
  StratumRule rule_;
};

}  // namespace vsj

#endif  // VSJ_CORE_ADAPTIVE_SAMPLING_H_
