#include "vsj/service/estimation_engine.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

EstimationEngine::EstimationEngine(const EstimationEngineOptions& options)
    : num_threads_(options.num_threads),
      enable_cache_(options.enable_cache),
      family_(MakeLshFamily(options.measure, options.family_seed)),
      pool_(options.num_threads),
      cache_(options.cache_capacity, options.cache_num_shards) {}

EstimateResponse EstimationEngine::Estimate(const EstimateRequest& request) {
  return EstimateBatch({request}).front();
}

std::vector<EstimateResponse> EstimationEngine::RunCachedBatch(
    const std::vector<EstimateRequest>& requests, uint64_t fingerprint,
    const std::function<bool(size_t)>& on_miss,
    const SweepTrialFn& run_trial) {
  for (const EstimateRequest& request : requests) {
    const char* error = ValidateEstimateRequest(request);
    if (error == nullptr) error = CheckEstimator(request.estimator_name);
    VSJ_CHECK_MSG(error == nullptr, "invalid EstimateRequest for %s: %s",
                  request.estimator_name.c_str(), error);
  }
  EstimateCache* cache = enable_cache_ ? &cache_ : nullptr;
  std::vector<EstimateResponse> responses(requests.size());

  // Misses holds the group leaders — the requests actually computed. A
  // later miss whose ExactKey matches an earlier one becomes a follower:
  // it skips dispatch and copies its leader's response after the pool
  // drains, exactly what a cache hit on the leader's entry would have
  // produced. No relabeling happens on hits or followers: the cache and
  // the grouping both key on the exact request identity, so a served
  // response already describes precisely the τ/estimator/policy that was
  // asked.
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
    const auto [it, inserted] = leader_of.emplace(ExactKey(requests[i]), i);
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
  pool_.ParallelFor(groups.size(), [&](size_t g) {
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
