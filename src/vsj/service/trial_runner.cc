#include "vsj/service/trial_runner.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
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

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
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

/// The sweep key of a request: every field the computed response depends
/// on except τ. Requests with equal sweep keys draw identical pair streams,
/// so they can share one sampling pass. The dataset fingerprint is
/// constant across a batch and stays out.
std::string SweepKey(const EstimateRequest& request) {
  std::string key;
  key.reserve(request.estimator_name.size() + 88);
  key.append(request.estimator_name);
  key.push_back('|');
  key.append(std::to_string(request.trials));
  key.push_back('|');
  key.append(std::to_string(request.seed));
  key.push_back('|');
  key.append(std::to_string(DoubleBits(request.max_rel_error)));
  for (const auto& field : {request.sample_size_h, request.sample_size_l,
                            request.delta}) {
    key.push_back('|');
    if (field.has_value()) {
      key.append(std::to_string(*field));
    } else {
      key.push_back('-');
    }
  }
  return key;
}

/// The duplicate-compute key of a request within one batch: the sweep key
/// plus the exact τ bits — everything the response depends on, exactly
/// like the cache key, so a follower served its leader's response sees
/// what a cache hit would have shown it.
std::string GroupKey(const EstimateRequest& request) {
  std::string key = SweepKey(request);
  key.push_back('|');
  key.append(std::to_string(DoubleBits(request.tau)));
  return key;
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

std::vector<EstimateResponse> RunCachedBatch(
    const std::vector<EstimateRequest>& requests, EstimateCache* cache,
    uint64_t fingerprint, ThreadPool& pool,
    const std::function<bool(size_t)>& on_miss,
    const SweepTrialFn& run_trial) {
  for (const EstimateRequest& request : requests) {
    const char* error = ValidateEstimateRequest(request);
    VSJ_CHECK_MSG(error == nullptr, "invalid EstimateRequest: %s", error);
  }
  std::vector<EstimateResponse> responses(requests.size());

  // Misses holds the group leaders — the requests actually computed. A
  // later miss whose GroupKey matches an earlier one becomes a follower:
  // it skips dispatch and copies its leader's response after the pool
  // drains, exactly what a cache hit on the leader's entry would have
  // produced. No relabeling happens on hits or followers: with the exact-τ
  // cache key and the exact GroupKey, a served response already describes
  // precisely the τ/estimator/policy that was asked.
  std::vector<size_t> misses;
  misses.reserve(requests.size());
  std::vector<bool> shares_sweeps(requests.size(), false);
  std::vector<std::pair<size_t, size_t>> followers;  // (follower, leader)
  std::unordered_map<std::string, size_t> leader_of;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (cache != nullptr) {
      if (auto hit = cache->Lookup(requests[i], fingerprint)) {
        responses[i] = *hit;
        continue;
      }
    }
    const auto [it, inserted] = leader_of.emplace(GroupKey(requests[i]), i);
    if (!inserted) {
      followers.emplace_back(i, it->second);
      continue;
    }
    shares_sweeps[i] = on_miss(i);
    misses.push_back(i);
  }

  // Sweep groups: leaders whose estimator shares work across τ and that
  // match in everything but τ draw the same pairs, so one pass answers
  // them all.
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (const size_t i : misses) {
    if (shares_sweeps[i]) {
      const auto [it, inserted] =
          group_of.emplace(SweepKey(requests[i]), groups.size());
      if (!inserted) {
        groups[it->second].push_back(i);
        continue;
      }
    }
    groups.push_back({i});
  }
  VSJ_COUNTER_ADD("estimate.batch_requests", requests.size());
  VSJ_COUNTER_ADD("estimate.batch_misses", misses.size());
  VSJ_COUNTER_ADD("estimate.batch_grouped", followers.size());
  for (const std::vector<size_t>& group : groups) {
    if (group.size() > 1) {
      VSJ_COUNTER_ADD("estimate.sweep_groups", 1);
      VSJ_COUNTER_ADD("estimate.sweep_taus", group.size());
    }
  }

  // Dispatch timestamp for the queue-wait histogram: how long a group sat
  // between batch dispatch and a pool worker picking it up, vs. how long
  // the estimate itself took. Timing only — work order is untouched.
  const uint64_t dispatch_ns = obs::MonotonicNowNs();
  pool.ParallelFor(groups.size(), [&](size_t g) {
    VSJ_HIST_RECORD("estimate.queue_wait_ns",
                    obs::MonotonicNowNs() - dispatch_ns);
    VSJ_TRACE_SPAN(execute_span, "estimate.execute_ns");
    const std::vector<size_t>& group = groups[g];
    std::vector<EstimateResponse> computed =
        RunDeterministicTrials(requests, group, run_trial);
    for (size_t m = 0; m < group.size(); ++m) {
      responses[group[m]] = std::move(computed[m]);
    }
  });

  for (const auto& [follower, leader] : followers) {
    responses[follower] = responses[leader];
  }

  if (cache != nullptr) {
    for (size_t i : misses) {
      cache->Insert(requests[i], fingerprint, responses[i]);
    }
  }
  return responses;
}

}  // namespace vsj
