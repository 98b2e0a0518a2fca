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
  rules_ = MakeLshSsRules(options, dataset.size());
}

std::string LshSsEstimator::name() const {
  return rules_.l.dampening == DampeningMode::kSafeLowerBound ? "LSH-SS"
                                                              : "LSH-SS(D)";
}

std::vector<EstimationResult> LshSsEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const uint64_t num_pairs_h = table_->NumSameBucketPairs();
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{num_pairs_h, rules_.h,
              [&](Rng& r) { return table_->SampleSameBucketPair(r); }},
      Stratum{dataset_.NumPairs() - num_pairs_h, rules_.l,
              [&](Rng& r) { return table_->SampleCrossBucketPair(r); }});
}

}  // namespace vsj
