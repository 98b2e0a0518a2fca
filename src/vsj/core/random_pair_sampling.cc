#include "vsj/core/random_pair_sampling.h"

#include "vsj/util/check.h"

namespace vsj {

RandomPairSampling::RandomPairSampling(DatasetView dataset,
                                       SimilarityMeasure measure,
                                       RandomPairSamplingOptions options)
    : dataset_(dataset), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  rule_.m = options.sample_size != 0 ? options.sample_size
                                     : DefaultRsSampleSize(dataset.size());
  VSJ_CHECK(rule_.m > 0);
}

std::vector<EstimationResult> RandomPairSampling::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const uint64_t n = dataset_.size();
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{dataset_.NumPairs(), rule_,
              [n](Rng& r) { return SampleDistinctPair(n, r); }});
}

}  // namespace vsj
