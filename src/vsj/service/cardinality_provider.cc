#include "vsj/service/cardinality_provider.h"

#include <utility>

#include "vsj/core/stratified_sampling.h"

namespace vsj {

CardinalityProvider::CardinalityProvider(EstimationService& service,
                                         CardinalityProviderOptions options)
    : service_(service), options_(std::move(options)) {}

JoinSizeSummary CardinalityProvider::EstimateJoin(double tau) {
  return EstimateJoinBatch({tau}).front();
}

std::vector<JoinSizeSummary> CardinalityProvider::EstimateJoinBatch(
    const std::vector<double>& taus) {
  std::vector<EstimateRequest> requests;
  requests.reserve(taus.size());
  for (double tau : taus) {
    EstimateRequest request;
    request.estimator_name = options_.estimator_name;
    request.tau = tau;
    request.trials = options_.trials;
    request.seed = options_.seed;
    requests.push_back(std::move(request));
  }

  const std::vector<EstimateResponse> responses =
      service_.EstimateBatch(requests);
  std::vector<JoinSizeSummary> summaries;
  summaries.reserve(responses.size());
  for (const EstimateResponse& response : responses) {
    summaries.push_back(Summarize(response));
  }
  return summaries;
}

JoinSizeSummary CardinalityProvider::Summarize(
    const EstimateResponse& response) const {
  JoinSizeSummary summary;
  summary.tau = response.tau;
  summary.max_pairs = service_.dataset().NumPairs();
  summary.cardinality = response.mean_estimate;
  summary.selectivity =
      summary.max_pairs == 0
          ? 0.0
          : summary.cardinality / static_cast<double>(summary.max_pairs);
  const Interval interval =
      EstimateInterval(response.strata, response.trials);
  summary.lower = interval.lower;
  summary.upper = interval.upper;
  summary.from_cache = response.from_cache;
  summary.estimator_name = response.estimator_name;
  return summary;
}

}  // namespace vsj
