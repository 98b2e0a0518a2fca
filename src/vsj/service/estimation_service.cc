#include "vsj/service/estimation_service.h"

#include <span>
#include <utility>

#include "vsj/obs/obs.h"
#include "vsj/service/dataset_fingerprint.h"
#include "vsj/service/trial_runner.h"
#include "vsj/util/check.h"
#include "vsj/util/timer.h"

namespace vsj {

EstimationService::EstimationService(VectorDataset dataset,
                                     EstimationServiceOptions options)
    : options_(options),
      dataset_(std::move(dataset)),
      view_(dataset_),
      fingerprint_(DatasetFingerprint(view_)),
      family_(MakeLshFamily(options.measure, options.family_seed)),
      pool_(options.num_threads),
      cache_(options.cache_capacity, options.cache_num_shards) {
  BuildIndexAndContext();
}

EstimationService::EstimationService(DatasetView dataset,
                                     EstimationServiceOptions options)
    : options_(options),
      view_(dataset),
      fingerprint_(DatasetFingerprint(view_)),
      family_(MakeLshFamily(options.measure, options.family_seed)),
      pool_(options.num_threads),
      cache_(options.cache_capacity, options.cache_num_shards) {
  BuildIndexAndContext();
}

void EstimationService::BuildIndexAndContext() {
  VSJ_CHECK_MSG(view_.size() >= 2,
                "EstimationService needs at least two vectors");
  Timer timer;
  {
    VSJ_TRACE_SPAN(build_span, "service.index_build_ns");
    index_ = std::make_unique<LshIndex>(*family_, view_, options_.k,
                                        options_.num_tables, &pool_);
  }
  index_build_seconds_ = timer.ElapsedSeconds();

  context_ = options_.estimator_options;
  context_.dataset = view_;
  context_.index = index_.get();
  context_.measure = options_.measure;
}

EstimateResponse EstimationService::Estimate(const EstimateRequest& request) {
  return EstimateBatch({request}).front();
}

std::vector<EstimateResponse> EstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests) {
  // The miss pre-pass makes sure every requested estimator instance exists
  // before workers start, so they only ever read. Members of a sweep group
  // share the leader's estimator (same name, same overrides).
  std::vector<const JoinSizeEstimator*> estimators(requests.size(), nullptr);
  return RunCachedBatch(
      requests, options_.enable_cache ? &cache_ : nullptr, fingerprint_,
      pool_,
      [&](size_t i) {
        estimators[i] = &EstimatorFor(requests[i]);
        return estimators[i]->SharesSweeps();
      },
      [&](size_t leader, size_t, std::span<const double> taus,
          const Rng& rng) {
        return estimators[leader]->EstimateSweep(taus, rng);
      });
}

const JoinSizeEstimator& EstimationService::EstimatorFor(
    const EstimateRequest& request) {
  std::string key = request.estimator_name;
  if (request.HasSamplingOverrides()) {
    for (const auto& field : {request.sample_size_h, request.sample_size_l,
                              request.delta}) {
      key.push_back('|');
      if (field.has_value()) {
        key.append(std::to_string(*field));
      } else {
        key.push_back('-');
      }
    }
  }
  std::lock_guard<std::mutex> lock(estimators_mutex_);
  auto it = estimators_.find(key);
  if (it == estimators_.end()) {
    EstimatorContext context = context_;
    if (request.sample_size_h.has_value()) {
      context.lsh_ss.sample_size_h = *request.sample_size_h;
    }
    if (request.sample_size_l.has_value()) {
      context.lsh_ss.sample_size_l = *request.sample_size_l;
    }
    if (request.delta.has_value()) {
      context.lsh_ss.delta = *request.delta;
    }
    it = estimators_
             .emplace(std::move(key),
                      CreateEstimator(request.estimator_name, context))
             .first;
  }
  return *it->second;
}

}  // namespace vsj
