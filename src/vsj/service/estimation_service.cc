#include "vsj/service/estimation_service.h"

#include <algorithm>
#include <span>
#include <utility>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"
#include "vsj/util/timer.h"

namespace vsj {

EstimationService::EstimationService(VectorDataset dataset,
                                     EstimationServiceOptions options)
    : EstimationEngine(options),
      options_(options),
      dataset_(std::move(dataset)),
      view_(dataset_) {
  BuildIndexAndContext();
}

EstimationService::EstimationService(DatasetView dataset,
                                     EstimationServiceOptions options)
    : EstimationEngine(options),
      options_(options),
      view_(dataset) {
  BuildIndexAndContext();
}

void EstimationService::BuildIndexAndContext() {
  VSJ_CHECK_MSG(view_.size() >= 2,
                "EstimationService needs at least two vectors");
  Timer timer;
  {
    VSJ_TRACE_SPAN(build_span, "service.index_build_ns");
    index_ = std::make_unique<LshIndex>(family(), view_, options_.k,
                                        options_.num_tables, &pool());
  }
  index_build_seconds_ = timer.ElapsedSeconds();

  context_ = {.dataset = view_,
              .index = index_.get(),
              .measure = options_.measure,
              .lsh_ss = options_.lsh_ss};
}

std::vector<EstimateResponse> EstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests, const ReadySink& on_ready) {
  // The pre-pass settles every leader's estimator before workers start, so
  // they only read. An overridden leader gets an instance local to this
  // batch, so the shared memo stays bounded by the registry however many
  // distinct overrides clients send. A sweep group shares its leader's.
  std::vector<const JoinSizeEstimator*> estimators(requests.size(), nullptr);
  std::vector<std::unique_ptr<JoinSizeEstimator>> overridden;
  return RunCachedBatch(
      requests,
      [&](size_t i) {
        const EstimateRequest& request = requests[i];
        if (request.HasSamplingOverrides()) {
          EstimatorContext context = context_;
          ApplySamplingOverrides(request, &context.lsh_ss);
          overridden.push_back(
              CreateEstimator(request.estimator_name, context));
          estimators[i] = overridden.back().get();
        } else {
          estimators[i] = &SharedEstimator(request.estimator_name);
        }
        return estimators[i]->SharesSweeps();
      },
      [&](size_t leader, size_t, std::span<const double> taus,
          const Rng& rng) {
        return estimators[leader]->EstimateSweep(taus, rng);
      },
      on_ready);
}

const char* EstimationService::CheckEstimator(
    const EstimateRequest& request) const {
  static const std::vector<std::string> kKnown = AllEstimatorNames();
  const std::string& name = request.estimator_name;
  if (std::find(kKnown.begin(), kKnown.end(), name) == kKnown.end()) {
    return "unknown estimator";
  }
  // The registry builds exactly the LSH-SS* names from context.lsh_ss; any
  // other estimator would answer as if m_H, m_L and δ were absent.
  if (request.HasSamplingOverrides() && !name.starts_with("LSH-SS")) {
    return "sampling overrides (sample_size_h, sample_size_l, delta) apply "
           "only to LSH-SS, LSH-SS(D), LSH-SS(median) and LSH-SS(vbucket)";
  }
  return nullptr;
}

const JoinSizeEstimator& EstimationService::SharedEstimator(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(estimators_mutex_);
  std::unique_ptr<JoinSizeEstimator>& estimator = estimators_[name];
  if (estimator == nullptr) estimator = CreateEstimator(name, context_);
  return *estimator;
}

}  // namespace vsj
