#include "vsj/core/adaptive_sampling.h"

#include "vsj/util/check.h"

namespace vsj {

AdaptiveSamplingEstimator::AdaptiveSamplingEstimator(
    DatasetView dataset, SimilarityMeasure measure,
    AdaptiveSamplingOptions options)
    : dataset_(dataset), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  LshSsOptions budget;  // zeros resolve from n (ResolveBudget)
  budget.sample_size_l = options.max_samples;
  budget.delta = options.delta;
  budget.dampening = DampeningMode::kFixedFactor;  // c_s = 1
  plan_ = MakeStratifiedPlan(dataset.NumPairs(), 0, dataset.size(), budget);
}

std::vector<EstimationResult> AdaptiveSamplingEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const uint64_t n = dataset_.size();
  // Stratum H is empty, so the first source never draws.
  const auto draw = [n](Rng& r) { return SampleDistinctPair(n, r); };
  return EstimateStratified(dataset_, measure_, plan_, taus, draw, draw,
                            rng);
}

}  // namespace vsj
