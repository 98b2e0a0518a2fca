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
  rule_ = MakeLshSsRules(budget, dataset.size()).l;
}

std::vector<EstimationResult> AdaptiveSamplingEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const uint64_t n = dataset_.size();
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{dataset_.NumPairs(), rule_,
              [n](Rng& r) { return SampleDistinctPair(n, r); }});
}

}  // namespace vsj
