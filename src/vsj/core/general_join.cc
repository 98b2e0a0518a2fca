#include "vsj/core/general_join.h"

#include <algorithm>

#include "vsj/core/random_pair_sampling.h"
#include "vsj/util/check.h"

namespace vsj {

GeneralLshSsEstimator::GeneralLshSsEstimator(
    DatasetView left, DatasetView right,
    const LshTable& left_table, const LshTable& right_table,
    SimilarityMeasure measure, LshSsOptions options)
    : halves_(new DatasetView[2]{left, right}),
      dataset_(DatasetView::Concatenated(halves_.get())),
      left_table_(&left_table),
      right_table_(&right_table),
      measure_(measure),
      rules_(MakeLshSsRules(options, std::max(left.size(), right.size()))) {
  VSJ_CHECK(!left.empty() && !right.empty());
  VSJ_CHECK(uint64_t{left.size()} + right.size() <= UINT32_MAX);
  VSJ_CHECK(left_table.num_vectors() == left.size());
  VSJ_CHECK(right_table.num_vectors() == right.size());
  VSJ_CHECK(left_table.k() == right_table.k());

  // Align buckets of the two tables by their g value.
  std::vector<double> weights;
  const auto& right_keys = right_table.key_to_bucket();
  for (size_t b = 0; b < left_table.num_buckets(); ++b) {
    auto it = right_keys.find(left_table.BucketKey(b));
    if (it == right_keys.end()) continue;
    const uint64_t weight =
        static_cast<uint64_t>(left_table.bucket_count(b)) *
        right_table.bucket_count(it->second);
    num_pairs_h_ += weight;
    matches_.push_back(
        MatchedBuckets{static_cast<uint32_t>(b), it->second});
    weights.push_back(static_cast<double>(weight));
  }
  if (!weights.empty()) {
    match_picker_ = std::make_unique<AliasTable>(weights);
  }
}

std::vector<EstimationResult> GeneralLshSsEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const DatasetView& left = halves_[0];
  const DatasetView& right = halves_[1];
  const auto offset = static_cast<VectorId>(left.size());
  // SampleH draws a matched bucket pair ∝ b_j · c_i, then one member per
  // side; SampleL draws a uniform (u, v), rejected while g(u) = g(v)
  // (N_L > 0 guarantees an accepting pair exists).
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{num_pairs_h_, rules_.h,
              [&](Rng& r) {
                const MatchedBuckets& m = matches_[match_picker_->Sample(r)];
                const auto& lhs = left_table_->bucket(m.left_bucket);
                const auto& rhs = right_table_->bucket(m.right_bucket);
                const VectorId u = lhs[r.Below(lhs.size())];
                const VectorId v = rhs[r.Below(rhs.size())];
                return VectorPair{u, offset + v};
              }},
      Stratum{uint64_t{left.size()} * right.size() - num_pairs_h_, rules_.l,
              [&](Rng& r) {
                VectorId u, v;
                do {
                  u = static_cast<VectorId>(r.Below(left.size()));
                  v = static_cast<VectorId>(r.Below(right.size()));
                } while (left_table_->BucketKey(left_table_->BucketOf(u)) ==
                         right_table_->BucketKey(right_table_->BucketOf(v)));
                return VectorPair{u, offset + v};
              }});
}

GeneralRandomPairSampling::GeneralRandomPairSampling(
    DatasetView left, DatasetView right,
    SimilarityMeasure measure, uint64_t sample_size)
    : halves_(new DatasetView[2]{left, right}),
      dataset_(DatasetView::Concatenated(halves_.get())),
      measure_(measure) {
  VSJ_CHECK(!left.empty() && !right.empty());
  VSJ_CHECK(uint64_t{left.size()} + right.size() <= UINT32_MAX);
  rule_.m = sample_size != 0
                ? sample_size
                : DefaultRsSampleSize(std::max(left.size(), right.size()));
}

std::vector<EstimationResult> GeneralRandomPairSampling::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const uint64_t left_size = halves_[0].size();
  const uint64_t right_size = halves_[1].size();
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{left_size * right_size, rule_, [&](Rng& r) {
                const auto u = static_cast<VectorId>(r.Below(left_size));
                const auto v = static_cast<VectorId>(r.Below(right_size));
                return VectorPair{u, static_cast<VectorId>(left_size + v)};
              }});
}

}  // namespace vsj
