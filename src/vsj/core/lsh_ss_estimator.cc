#include "vsj/core/lsh_ss_estimator.h"

#include <cmath>

#include "vsj/util/check.h"

namespace vsj {

LshSsEstimator::LshSsEstimator(DatasetView dataset,
                               const LshTable& table,
                               SimilarityMeasure measure,
                               LshSsOptions options)
    : dataset_(dataset),
      table_(&table),
      measure_(measure),
      dampening_(options.dampening),
      dampening_factor_(options.dampening_factor) {
  VSJ_CHECK(dataset.size() >= 2);
  VSJ_CHECK(table.num_vectors() == dataset.size());
  const auto n = static_cast<uint64_t>(dataset.size());
  sample_size_h_ = options.sample_size_h != 0 ? options.sample_size_h : n;
  sample_size_l_ = options.sample_size_l != 0 ? options.sample_size_l : n;
  delta_ = options.delta != 0
               ? options.delta
               : static_cast<uint64_t>(
                     std::max(1.0, std::log2(static_cast<double>(n))));
  if (dampening_ == DampeningMode::kFixedFactor) {
    VSJ_CHECK_MSG(dampening_factor_ > 0.0 && dampening_factor_ <= 1.0,
                  "dampening factor c_s must be in (0, 1]");
  }
}

std::string LshSsEstimator::name() const {
  return dampening_ == DampeningMode::kSafeLowerBound ? "LSH-SS"
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
  StratifiedPlan plan;
  plan.total_pairs = dataset_.NumPairs();
  plan.num_pairs_h = table_->NumSameBucketPairs();
  plan.num_pairs_l = table_->NumCrossBucketPairs();
  plan.m_h = sample_size_h_;
  plan.m_l = sample_size_l_;
  plan.delta = delta_;
  plan.dampening = dampening_;
  plan.dampening_factor = dampening_factor_;
  return EstimateStratified(
      dataset_, measure_, plan, taus,
      [&](Rng& r) { return table_->SampleSameBucketPair(r); },
      [&](Rng& r) { return table_->SampleCrossBucketPair(r); }, rng);
}

}  // namespace vsj
