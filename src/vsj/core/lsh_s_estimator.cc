#include "vsj/core/lsh_s_estimator.h"

#include "vsj/util/check.h"
#include "vsj/vector/similarity.h"

namespace vsj {

LshSEstimator::LshSEstimator(DatasetView dataset,
                             const LshFamily& family, const LshTable& table,
                             LshSOptions options)
    : dataset_(dataset),
      family_(&family),
      table_(&table),
      model_(family, table.k()),
      sample_size_(options.sample_size != 0 ? options.sample_size
                                            : dataset.size()) {
  VSJ_CHECK(dataset.size() >= 2);
  VSJ_CHECK(table.num_vectors() == dataset.size());
}

EstimationResult LshSEstimator::Estimate(double tau, Rng& rng) const {
  EstimationResult result;
  const uint64_t total_pairs = dataset_.NumPairs();
  if (tau <= 0.0) {
    result.estimate = static_cast<double>(total_pairs);
    return result;
  }
  const SimilarityMeasure measure = family_->measure();

  // Uniform pair sample; accumulate Σ f(sim) separately over S_T and S_F.
  double f_sum_true = 0.0;
  uint64_t num_true = 0;
  double f_sum_false = 0.0;
  uint64_t num_false = 0;
  const size_t n = dataset_.size();
  for (uint64_t s = 0; s < sample_size_; ++s) {
    const VectorPair pair = SampleDistinctPair(n, rng);
    const double sim =
        Similarity(measure, dataset_[pair.first], dataset_[pair.second]);
    const double f = model_.BandProbability(sim);
    if (sim >= tau) {
      f_sum_true += f;
      ++num_true;
    } else {
      f_sum_false += f;
      ++num_false;
    }
  }
  result.pairs_evaluated = sample_size_;

  double p_h_given_t;
  if (num_true > 0) {
    p_h_given_t = f_sum_true / static_cast<double>(num_true);
  } else {
    p_h_given_t = model_.ConditionalHGivenTrue(tau);  // fallback, unreliable
    result.guaranteed = false;
  }
  double p_h_given_f;
  if (num_false > 0) {
    p_h_given_f = f_sum_false / static_cast<double>(num_false);
  } else {
    p_h_given_f = model_.ConditionalHGivenFalse(tau);
    result.guaranteed = false;
  }

  const double denom = p_h_given_t - p_h_given_f;
  if (denom <= 0.0) {
    result.guaranteed = false;
    result.estimate = 0.0;
    return result;
  }
  const double n_h = static_cast<double>(table_->NumSameBucketPairs());
  const double m = static_cast<double>(total_pairs);
  result.estimate =
      ClampEstimate((n_h - m * p_h_given_f) / denom, total_pairs);
  return result;
}

}  // namespace vsj
