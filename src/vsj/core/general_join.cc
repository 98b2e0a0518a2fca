#include "vsj/core/general_join.h"

#include <cmath>

#include "vsj/util/check.h"

namespace vsj {

GeneralLshSsEstimator::GeneralLshSsEstimator(
    DatasetView left, DatasetView right,
    const LshTable& left_table, const LshTable& right_table,
    SimilarityMeasure measure, LshSsOptions options)
    : left_(left),
      right_(right),
      left_table_(&left_table),
      right_table_(&right_table),
      measure_(measure) {
  VSJ_CHECK(!left.empty() && !right.empty());
  VSJ_CHECK(left_table.num_vectors() == left.size());
  VSJ_CHECK(right_table.num_vectors() == right.size());
  VSJ_CHECK(left_table.k() == right_table.k());

  // Align buckets of the two tables by their g value.
  uint64_t num_same_bucket_pairs = 0;
  std::vector<double> weights;
  const auto& right_keys = right_table.key_to_bucket();
  for (size_t b = 0; b < left_table.num_buckets(); ++b) {
    auto it = right_keys.find(left_table.BucketKey(b));
    if (it == right_keys.end()) continue;
    const uint64_t weight =
        static_cast<uint64_t>(left_table.bucket_count(b)) *
        right_table.bucket_count(it->second);
    num_same_bucket_pairs += weight;
    matches_.push_back(
        MatchedBuckets{static_cast<uint32_t>(b), it->second});
    weights.push_back(static_cast<double>(weight));
  }
  if (!weights.empty()) {
    match_picker_ = std::make_unique<AliasTable>(weights);
  }

  const uint64_t total_pairs =
      static_cast<uint64_t>(left.size()) * right.size();
  const SamplingBudget budget =
      ResolveBudget(options, std::max(left.size(), right.size()));
  plan_ = {.total_pairs = total_pairs,
           .num_pairs_h = num_same_bucket_pairs,
           .num_pairs_l = total_pairs - num_same_bucket_pairs,
           .m_h = budget.sample_size_h,
           .m_l = budget.sample_size_l,
           .delta = budget.delta,
           .dampening = options.dampening,
           .dampening_factor = options.dampening_factor};
}

EstimationResult GeneralLshSsEstimator::Estimate(double tau,
                                                 Rng& rng) const {
  EstimationResult result;
  if (tau <= 0.0) {
    result.estimate = static_cast<double>(plan_.total_pairs);
    return result;
  }

  // --- SampleH: matched bucket pair ∝ b_j·c_i, one member per side. ---
  if (match_picker_ != nullptr) {
    uint64_t hits = 0;
    for (uint64_t s = 0; s < plan_.m_h; ++s) {
      const MatchedBuckets& m = matches_[match_picker_->Sample(rng)];
      const auto& lhs = left_table_->bucket(m.left_bucket);
      const auto& rhs = right_table_->bucket(m.right_bucket);
      const VectorId u = lhs[rng.Below(lhs.size())];
      const VectorId v = rhs[rng.Below(rhs.size())];
      if (Similarity(measure_, left_[u], right_[v]) >= tau) ++hits;
    }
    result.pairs_evaluated += plan_.m_h;
    result.stratum_h_estimate = static_cast<double>(hits) *
                                static_cast<double>(plan_.num_pairs_h) /
                                static_cast<double>(plan_.m_h);
  }

  // --- SampleL: uniform (u, v), rejected when g(u) = g(v). ---
  if (plan_.num_pairs_l > 0) {
    uint64_t hits = 0;
    uint64_t samples = 0;
    while (hits < plan_.delta && samples < plan_.m_l) {
      VectorId u, v;
      do {
        u = static_cast<VectorId>(rng.Below(left_.size()));
        v = static_cast<VectorId>(rng.Below(right_.size()));
      } while (left_table_->BucketKey(left_table_->BucketOf(u)) ==
               right_table_->BucketKey(right_table_->BucketOf(v)));
      if (Similarity(measure_, left_[u], right_[v]) >= tau) ++hits;
      ++samples;
    }
    result.pairs_evaluated += samples;
    ScaleStratumL(hits, samples, plan_.num_pairs_l, plan_.m_l, plan_.delta,
                  plan_.dampening, plan_.dampening_factor, result);
  }

  result.estimate =
      ClampEstimate(result.stratum_h_estimate + result.stratum_l_estimate,
                    plan_.total_pairs);
  return result;
}

GeneralRandomPairSampling::GeneralRandomPairSampling(
    DatasetView left, DatasetView right,
    SimilarityMeasure measure, uint64_t sample_size)
    : left_(left), right_(right), measure_(measure) {
  VSJ_CHECK(!left.empty() && !right.empty());
  sample_size_ =
      sample_size != 0
          ? sample_size
          : static_cast<uint64_t>(
                std::llround(1.5 * std::max(left.size(), right.size())));
}

EstimationResult GeneralRandomPairSampling::Estimate(double tau,
                                                     Rng& rng) const {
  uint64_t hits = 0;
  for (uint64_t s = 0; s < sample_size_; ++s) {
    const auto u = static_cast<VectorId>(rng.Below(left_.size()));
    const auto v = static_cast<VectorId>(rng.Below(right_.size()));
    if (Similarity(measure_, left_[u], right_[v]) >= tau) ++hits;
  }
  const uint64_t total_pairs =
      static_cast<uint64_t>(left_.size()) * right_.size();
  EstimationResult result;
  result.pairs_evaluated = sample_size_;
  result.estimate = ClampEstimate(static_cast<double>(hits) *
                                      static_cast<double>(total_pairs) /
                                      static_cast<double>(sample_size_),
                                  total_pairs);
  return result;
}

}  // namespace vsj
