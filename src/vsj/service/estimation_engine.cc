#include "vsj/service/estimation_engine.h"

#include <algorithm>
#include <mutex>
#include <span>
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
      cache_(options.cache_capacity) {}

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

  // Pool tasks. A group whose members never exit early needs every trial,
  // and trial t's stream depends on nothing but (seed, t), so its trials
  // split into up to kChunksPerThread × threads chunks of consecutive
  // trials, one task each, and a single 9-τ session spreads over the pool.
  // A chunk writes trial t's estimates straight into MemberTrials slot t,
  // so the batch holds one double per trial per τ — what in-order
  // aggregation keeps anyway — and the task finishing a group's last chunk
  // aggregates it. A group with max_rel_error > 0 stays one task running
  // RunDeterministicTrials: its later trials may never be needed. One flat
  // ParallelFor — nesting one per group would add no concurrency
  // (thread_pool.h).
  constexpr size_t kChunksPerThread = 4;
  struct Task {
    size_t group;
    size_t begin, end;  // trials [begin, end); begin == end: the whole
                        // early-exit group, in order
  };
  struct GroupTrials {
    std::vector<double> taus;
    std::vector<MemberTrials> members;
    std::mutex mu;  // guards the rest, and orders the chunks' writes
    size_t chunks_left = 0;
    uint64_t start_ns = ~uint64_t{0};  // earliest chunk start
  };
  std::vector<Task> tasks;
  std::vector<GroupTrials> split(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const EstimateRequest& leader = requests[groups[g].front()];
    if (leader.max_rel_error > 0.0) {  // part of SweepKey: shared by all
      tasks.push_back({g, 0, 0});
      continue;
    }
    GroupTrials& state = split[g];
    state.members.resize(groups[g].size());
    for (size_t m = 0; m < groups[g].size(); ++m) {
      state.taus.push_back(requests[groups[g][m]].tau);
      state.members[m].estimates.resize(leader.trials);
    }
    // num_threads 0 runs inline, like 1.
    state.chunks_left = std::min(
        leader.trials, kChunksPerThread * std::max<size_t>(num_threads_, 1));
    for (size_t c = 0; c < state.chunks_left; ++c) {
      tasks.push_back({g, leader.trials * c / state.chunks_left,
                       leader.trials * (c + 1) / state.chunks_left});
    }
  }
  // Dispatch timestamp for the queue-wait histogram: how long a task sat
  // between batch dispatch and a pool worker picking it up, vs. how long
  // the task itself took. Both histograms record once per task — a chunk
  // of trials, or a whole early-exit group. Timing only — work order is
  // untouched.
  const uint64_t dispatch_ns = obs::MonotonicNowNs();
  const SweepTrialFn timed_trial = [&](size_t leader, size_t t,
                                       std::span<const double> taus,
                                       const Rng& rng) {
    VSJ_TRACE_SPAN(trial_span, "estimate.trial_ns");
    return run_trial(leader, t, taus, rng);
  };
  pool_.ParallelFor(tasks.size(), [&](size_t k) {
    const uint64_t start_ns = obs::MonotonicNowNs();
    VSJ_HIST_RECORD("estimate.queue_wait_ns", start_ns - dispatch_ns);
    VSJ_TRACE_SPAN(execute_span, "estimate.execute_ns");
    const Task& task = tasks[k];
    const std::vector<size_t>& group = groups[task.group];
    if (task.begin == task.end) {
      std::vector<EstimateResponse> computed =
          RunDeterministicTrials(requests, group, timed_trial);
      for (size_t m = 0; m < group.size(); ++m) {
        responses[group[m]] = std::move(computed[m]);
      }
      return;
    }
    GroupTrials& state = split[task.group];
    std::vector<MemberTrials> totals(group.size());  // integer parts only
    for (size_t t = task.begin; t < task.end; ++t) {
      const std::vector<EstimationResult> results =
          timed_trial(group.front(), t, state.taus,
                      TrialStream(requests[group.front()], t));
      for (size_t m = 0; m < group.size(); ++m) {
        state.members[m].estimates[t] = results[m].estimate;
        totals[m].pairs_evaluated += results[m].pairs_evaluated;
        if (!results[m].guaranteed) ++totals[m].num_unguaranteed;
      }
    }
    {
      std::lock_guard<std::mutex> lock(state.mu);
      for (size_t m = 0; m < group.size(); ++m) {
        state.members[m].pairs_evaluated += totals[m].pairs_evaluated;
        state.members[m].num_unguaranteed += totals[m].num_unguaranteed;
      }
      state.start_ns = std::min(state.start_ns, start_ns);
      if (--state.chunks_left > 0) return;
    }
    // The group's last chunk: every other chunk's writes happened before
    // its unlock, so the estimates are complete. Latency runs from the
    // group's first chunk start, as for an in-order group's task start.
    for (size_t m = 0; m < group.size(); ++m) {
      responses[group[m]] = FinishTrials(requests[group[m]], state.members[m],
                                         state.start_ns);
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
