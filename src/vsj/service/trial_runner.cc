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

std::vector<EstimateResponse> RunDeterministicTrials(
    const std::vector<EstimateRequest>& requests,
    std::span<const size_t> group, const SweepTrialFn& run_trial) {
  const EstimateRequest& first = requests[group.front()];
  VSJ_CHECK(first.trials > 0);
  const uint64_t start_ns = obs::MonotonicNowNs();
  VSJ_COUNTER_ADD("estimate.requests", group.size());

  std::vector<EstimateResponse> responses(group.size());
  std::vector<std::vector<double>> estimates(group.size());
  const auto finish = [&](size_t m) {
    const EstimateRequest& request = requests[group[m]];
    EstimateResponse& response = responses[m];
    response.tau = request.tau;
    response.estimator_name = request.estimator_name;
    response.trials = estimates[m].size();
    response.mean_estimate = MeanOf(estimates[m]);
    if (estimates[m].size() > 1) {
      response.std_dev = SampleStdDevOf(estimates[m], response.mean_estimate);
      response.std_error = response.std_dev /
                           std::sqrt(static_cast<double>(estimates[m].size()));
    }
    VSJ_COUNTER_ADD("estimate.trials", estimates[m].size());
    if (VSJ_METRICS_COMPILED && obs::MetricsEnabled()) {
      obs::MetricRegistry::Global()
          .GetHistogram(LatencyMetricName(request.estimator_name, request.tau))
          .Record(obs::MonotonicNowNs() - start_ns);
    }
  };

  // Members still running, in group order; trial t asks for their τ only.
  std::vector<size_t> running(group.size());
  for (size_t m = 0; m < running.size(); ++m) running[m] = m;
  std::vector<double> taus;
  // The one stream convention (trial_runner.h): Rng(seed).Fork(0).Fork(t).
  const Rng request_stream = Rng(first.seed).Fork(0);
  for (size_t t = 0; t < first.trials && !running.empty(); ++t) {
    taus.clear();
    for (const size_t m : running) taus.push_back(requests[group[m]].tau);
    VSJ_TRACE_SPAN(trial_span, "estimate.trial_ns");
    const std::vector<EstimationResult> results =
        run_trial(group.front(), t, taus, request_stream.Fork(t));
    size_t still_running = 0;
    for (size_t a = 0; a < running.size(); ++a) {
      const size_t m = running[a];
      estimates[m].push_back(results[a].estimate);
      responses[m].pairs_evaluated += results[a].pairs_evaluated;
      if (!results[a].guaranteed) ++responses[m].num_unguaranteed;
      if (WithinErrorBound(requests[group[m]], estimates[m])) {
        VSJ_COUNTER_ADD("estimate.early_exit", 1);
        VSJ_COUNTER_ADD("estimate.trials_saved",
                        first.trials - estimates[m].size());
        finish(m);
      } else {
        running[still_running++] = m;
      }
    }
    running.resize(still_running);
  }
  for (const size_t m : running) finish(m);
  return responses;
}

}  // namespace vsj
