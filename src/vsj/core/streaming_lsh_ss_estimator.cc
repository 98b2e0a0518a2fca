#include "vsj/core/streaming_lsh_ss_estimator.h"

#include "vsj/util/check.h"

namespace vsj {

StreamingLshSsEstimator::StreamingLshSsEstimator(
    DatasetView dataset, const DynamicLshIndex& index,
    SimilarityMeasure measure, StreamingLshSsOptions options)
    : dataset_(dataset),
      index_(&index),
      measure_(measure),
      options_(options) {}

std::string StreamingLshSsEstimator::name() const { return "LSH-SS(stream)"; }

void StreamingSampleContext::Build(const DynamicLshIndex& index,
                                   size_t id_bound) {
  bucket_of.resize(index.num_tables());
  for (uint32_t t = 0; t < index.num_tables(); ++t) {
    bucket_of[t].assign(id_bound, kAbsentBucket);
    index.table(t).ExportBucketOf(bucket_of[t]);
  }
}

EstimationResult StreamingLshSsEstimator::EstimateWithTable(
    double tau, uint32_t t, Rng& rng, const StreamingSampleContext* context,
    const StreamingLshSsOptions* override_options) const {
  return Sweep({&tau, 1}, t, rng, context, override_options).front();
}

std::vector<EstimationResult> StreamingLshSsEstimator::EstimateSweepWithTable(
    std::span<const double> taus, uint32_t t, const Rng& rng,
    const StreamingSampleContext* context,
    const StreamingLshSsOptions* override_options) const {
  Rng copy = rng;
  return Sweep(taus, t, copy, context, override_options);
}

std::vector<EstimationResult> StreamingLshSsEstimator::Sweep(
    std::span<const double> taus, uint32_t t, Rng& rng,
    const StreamingSampleContext* context,
    const StreamingLshSsOptions* override_options) const {
  VSJ_CHECK(t < index_->num_tables());
  const uint64_t n = index_->num_vectors();
  if (n < 2) return std::vector<EstimationResult>(taus.size());

  const DynamicLshTable& table = index_->table(t);
  // The streaming engine always uses the safe lower bound (Theorem 1) when
  // the answer-size threshold is missed.
  const LshSsRules rules = MakeLshSsRules(
      {override_options != nullptr ? *override_options : options_}, n);
  const uint64_t num_pairs_h = table.NumSameBucketPairs();

  const uint32_t* bucket_of = context != nullptr && !context->empty()
                                  ? context->bucket_of[t].data()
                                  : nullptr;
  // SampleL draws uniform live pairs through the index's live-id list,
  // rejecting same-bucket pairs of the chosen table. Termination: N_L > 0
  // guarantees an accepting pair exists; the expected number of rejections
  // per draw is N_H / N_L.
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{num_pairs_h, rules.h,
              [&](Rng& r) { return table.SampleSameBucketPair(r); }},
      Stratum{n * (n - 1) / 2 - num_pairs_h, rules.l, [&](Rng& r) {
                VectorId u, v;
                do {
                  u = index_->SampleLiveId(r);
                  v = index_->SampleLiveId(r);
                } while (u == v || (bucket_of != nullptr
                                        ? bucket_of[u] == bucket_of[v]
                                        : table.SameBucket(u, v)));
                return VectorPair{u, v};
              }});
}

std::vector<EstimationResult> StreamingLshSsEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  return Sweep(taus, 0, rng, nullptr, nullptr);
}

}  // namespace vsj
