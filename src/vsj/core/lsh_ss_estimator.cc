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
  if (options.dampening == DampeningMode::kFixedFactor) {
    VSJ_CHECK_MSG(
        options.dampening_factor > 0.0 && options.dampening_factor <= 1.0,
        "dampening factor c_s must be in (0, 1]");
  }
  const SamplingBudget budget = ResolveBudget(options, dataset.size());
  plan_ = {.total_pairs = dataset.NumPairs(),
           .num_pairs_h = table.NumSameBucketPairs(),
           .num_pairs_l = table.NumCrossBucketPairs(),
           .m_h = budget.sample_size_h,
           .m_l = budget.sample_size_l,
           .delta = budget.delta,
           .dampening = options.dampening,
           .dampening_factor = options.dampening_factor};
}

std::string LshSsEstimator::name() const {
  return plan_.dampening == DampeningMode::kSafeLowerBound ? "LSH-SS"
                                                           : "LSH-SS(D)";
}

EstimationResult LshSsEstimator::Estimate(double tau, Rng& rng) const {
  return Sweep({&tau, 1}, rng).front();
}

std::vector<EstimationResult> LshSsEstimator::EstimateSweep(
    std::span<const double> taus, const Rng& rng) const {
  Rng copy = rng;
  return Sweep(taus, copy);
}

std::vector<EstimationResult> LshSsEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  return EstimateStratified(
      dataset_, measure_, plan_, taus,
      [&](Rng& r) { return table_->SampleSameBucketPair(r); },
      [&](Rng& r) { return table_->SampleCrossBucketPair(r); }, rng);
}

}  // namespace vsj
