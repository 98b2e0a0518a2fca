#include "vsj/core/lsh_ss_estimator.h"

#include "vsj/util/check.h"

namespace vsj {

LshSsEstimator::LshSsEstimator(DatasetView dataset,
                               const LshTable& table,
                               SimilarityMeasure measure,
                               LshSsOptions options)
    : dataset_(dataset), table_(&table), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  VSJ_CHECK(table.num_vectors() == dataset.size());
  plan_ = MakeStratifiedPlan(dataset.NumPairs(), table.NumSameBucketPairs(),
                             dataset.size(), options);
}

std::string LshSsEstimator::name() const {
  return plan_.dampening == DampeningMode::kSafeLowerBound ? "LSH-SS"
                                                           : "LSH-SS(D)";
}

std::vector<EstimationResult> LshSsEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  return EstimateStratified(
      dataset_, measure_, plan_, taus,
      [&](Rng& r) { return table_->SampleSameBucketPair(r); },
      [&](Rng& r) { return table_->SampleCrossBucketPair(r); }, rng);
}

}  // namespace vsj
