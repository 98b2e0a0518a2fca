#include "vsj/service/trial_runner.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

/// Runtime-composed histogram name for per-request latency at
/// estimator × τ-bucket granularity (τ rounded to one decimal, so a sweep's
/// latencies land in a bounded set of histograms). Composed only when
/// metrics are on — request granularity, so the string build is off every
/// hot path.
std::string LatencyMetricName(const std::string& estimator_name, double tau) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".tau%.1f", tau);
  return "estimate.latency_ns." + estimator_name + suffix;
}

double MeanOf(const std::vector<double>& estimates) {
  double sum = 0.0;
  for (double e : estimates) sum += e;
  return sum / static_cast<double>(estimates.size());
}

double SampleStdDevOf(const std::vector<double>& estimates, double mean) {
  double sq = 0.0;
  for (double e : estimates) {
    const double d = e - mean;
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(estimates.size() - 1));
}

/// Any-τ early exit: `trials` is a budget, not a mandate. Once at least two
/// trials bound the spread and the running standard error of the mean is
/// inside the requested relative band, further trials buy precision nobody
/// asked for. Completed trials are untouched (each drew from its own
/// Fork(t) stream), so the early-exited response is a prefix of the
/// full-budget trial sequence — deterministic, just shorter.
bool WithinErrorBound(const EstimateRequest& request,
                      const std::vector<double>& estimates) {
  if (request.max_rel_error <= 0.0 || estimates.size() < 2 ||
      estimates.size() >= request.trials) {
    return false;
  }
  const double mean = MeanOf(estimates);
  const double std_error = SampleStdDevOf(estimates, mean) /
                           std::sqrt(static_cast<double>(estimates.size()));
  return std_error <= request.max_rel_error * std::abs(mean);
}

}  // namespace

Rng TrialStream(const EstimateRequest& request, size_t t) {
  return Rng(request.seed).Fork(0).Fork(t);
}

EstimateResponse FinishTrials(const EstimateRequest& request,
                              const MemberTrials& trials, uint64_t start_ns) {
  EstimateResponse response;
  response.tau = request.tau;
  response.estimator_name = request.estimator_name;
  const std::vector<double>& estimates = trials.estimates;
  response.trials = estimates.size();
  response.mean_estimate = MeanOf(estimates);
  if (estimates.size() > 1) {
    response.std_dev = SampleStdDevOf(estimates, response.mean_estimate);
    response.std_error =
        response.std_dev / std::sqrt(static_cast<double>(estimates.size()));
  }
  response.pairs_evaluated = trials.pairs_evaluated;
  response.num_unguaranteed = trials.num_unguaranteed;
  VSJ_COUNTER_ADD("estimate.requests", 1);
  VSJ_COUNTER_ADD("estimate.trials", estimates.size());
  if (obs::MetricsEnabled()) {
    obs::MetricRegistry::Global()
        .GetHistogram(LatencyMetricName(request.estimator_name, request.tau))
        .Record(obs::MonotonicNowNs() - start_ns);
  }
  return response;
}

std::vector<EstimateResponse> RunDeterministicTrials(
    const std::vector<EstimateRequest>& requests,
    std::span<const size_t> group, const SweepTrialFn& run_trial) {
  const EstimateRequest& first = requests[group.front()];
  VSJ_CHECK(first.trials > 0);
  const uint64_t start_ns = obs::MonotonicNowNs();

  std::vector<EstimateResponse> responses(group.size());
  std::vector<MemberTrials> trials(group.size());
  // Members still running, in group order; trial t asks for their τ only.
  std::vector<size_t> running(group.size());
  for (size_t m = 0; m < running.size(); ++m) running[m] = m;
  std::vector<double> taus;
  for (size_t t = 0; t < first.trials && !running.empty(); ++t) {
    taus.clear();
    for (const size_t m : running) taus.push_back(requests[group[m]].tau);
    const std::vector<EstimationResult> results =
        run_trial(group.front(), t, taus, TrialStream(first, t));
    size_t still_running = 0;
    for (size_t a = 0; a < running.size(); ++a) {
      const size_t m = running[a];
      trials[m].estimates.push_back(results[a].estimate);
      trials[m].pairs_evaluated += results[a].pairs_evaluated;
      if (!results[a].guaranteed) ++trials[m].num_unguaranteed;
      const EstimateRequest& request = requests[group[m]];
      if (WithinErrorBound(request, trials[m].estimates)) {
        VSJ_COUNTER_ADD("estimate.early_exit", 1);
        VSJ_COUNTER_ADD("estimate.trials_saved",
                        first.trials - trials[m].estimates.size());
        responses[m] = FinishTrials(request, trials[m], start_ns);
      } else {
        running[still_running++] = m;
      }
    }
    running.resize(still_running);
  }
  for (const size_t m : running) {
    responses[m] = FinishTrials(requests[group[m]], trials[m], start_ns);
  }
  return responses;
}

}  // namespace vsj
