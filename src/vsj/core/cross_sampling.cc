#include "vsj/core/cross_sampling.h"

#include <cmath>
#include <unordered_set>
#include <vector>

#include "vsj/core/random_pair_sampling.h"
#include "vsj/util/check.h"

namespace vsj {

CrossSampling::CrossSampling(DatasetView dataset,
                             SimilarityMeasure measure,
                             CrossSamplingOptions options)
    : dataset_(dataset), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  const uint64_t pair_budget = options.sample_size != 0
                                   ? options.sample_size
                                   : DefaultRsSampleSize(dataset.size());
  num_records_ = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(pair_budget))));
  num_records_ = std::max<size_t>(2, std::min(num_records_, dataset.size()));
}

EstimationResult CrossSampling::Estimate(double tau, Rng& rng) const {
  const size_t n = dataset_.size();
  // Without-replacement record sample (Floyd-style via a set; the sample is
  // far smaller than n in every intended configuration).
  std::unordered_set<VectorId> chosen;
  std::vector<VectorId> records;
  records.reserve(num_records_);
  while (records.size() < num_records_) {
    const auto id = static_cast<VectorId>(rng.Below(n));
    if (chosen.insert(id).second) records.push_back(id);
  }

  uint64_t hits = 0;
  uint64_t evaluated = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = i + 1; j < records.size(); ++j) {
      ++evaluated;
      if (Similarity(measure_, dataset_[records[i]],
                     dataset_[records[j]]) >= tau) {
        ++hits;
      }
    }
  }

  EstimationResult result;
  result.pairs_evaluated = evaluated;
  const double sampled_pairs = static_cast<double>(evaluated);
  result.estimate = ClampEstimate(
      static_cast<double>(hits) *
          static_cast<double>(dataset_.NumPairs()) / sampled_pairs,
      dataset_.NumPairs());
  return result;
}

}  // namespace vsj
