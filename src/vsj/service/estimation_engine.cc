#include "vsj/service/estimation_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

/// One group member's trials: every estimate in trial order, and the
/// integer totals, stratum tallies included (order-insensitive, so chunks
/// may add them in any order).
struct MemberTrials {
  std::vector<double> estimates;
  uint64_t pairs_evaluated = 0;
  uint64_t num_unguaranteed = 0;
  StratumTallies strata{};
};

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

double MeanOf(std::span<const double> estimates) {
  double sum = 0.0;
  for (double e : estimates) sum += e;
  return sum / static_cast<double>(estimates.size());
}

double SampleStdDevOf(std::span<const double> estimates, double mean) {
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
                      std::span<const double> estimates) {
  if (request.max_rel_error <= 0.0 || estimates.size() < 2 ||
      estimates.size() >= request.trials) {
    return false;
  }
  const double mean = MeanOf(estimates);
  const double std_error = SampleStdDevOf(estimates, mean) /
                           std::sqrt(static_cast<double>(estimates.size()));
  return std_error <= request.max_rel_error * std::abs(mean);
}

/// `request`'s response from its `trials` (mean, sample std-dev, standard
/// error, sampling cost). Its `estimate.latency_ns.*` histogram records the
/// time from `start_ns` (obs::MonotonicNowNs when the group's first task
/// started) until now, when the group's last chunk finished — not the
/// whole batch.
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
  response.strata = trials.strata;
  VSJ_COUNTER_ADD("estimate.requests", 1);
  VSJ_COUNTER_ADD("estimate.trials", estimates.size());
  if (obs::MetricsEnabled()) {
    obs::MetricRegistry::Global()
        .GetHistogram(LatencyMetricName(request.estimator_name, request.tau))
        .Record(obs::MonotonicNowNs() - start_ns);
  }
  return response;
}

}  // namespace

EstimationEngine::EstimationEngine(const EstimationEngineOptions& options)
    : num_threads_(options.num_threads),
      family_(MakeLshFamily(options.measure, options.family_seed)),
      pool_(options.num_threads),
      cache_(options.cache_capacity) {}

EstimateResponse EstimationEngine::Estimate(const EstimateRequest& request) {
  return EstimateBatch({request}).front();
}

std::vector<EstimateResponse> EstimationEngine::RunCachedBatch(
    const std::vector<EstimateRequest>& requests,
    const std::function<bool(size_t)>& on_miss,
    const SweepTrialFn& run_trial, const ReadySink& on_ready) {
  for (const EstimateRequest& request : requests) {
    const char* error = ValidateEstimateRequest(request);
    if (error == nullptr) error = CheckEstimator(request);
    VSJ_CHECK_MSG(error == nullptr, "invalid EstimateRequest for %s: %s",
                  request.estimator_name.c_str(), error);
  }
  EstimateCache* cache = cache_.capacity() > 0 ? &cache_ : nullptr;
  std::vector<EstimateResponse> responses(requests.size());

  // Misses holds the group leaders — the requests actually computed. A
  // later miss whose ExactKey matches an earlier one becomes a follower:
  // it skips dispatch and copies its leader's response once the leader's
  // group finishes, exactly what a cache hit on the leader's entry would
  // have produced. No relabeling happens on hits or followers: the cache
  // lookup, the grouping and the post-pass insert all use the request's
  // one ExactKey, so a served response already describes precisely the
  // τ/estimator/policy that was asked.
  std::vector<size_t> hits;
  std::vector<size_t> misses;
  misses.reserve(requests.size());
  std::vector<bool> shares_sweeps(requests.size(), false);
  std::vector<std::pair<size_t, size_t>> followers;  // (follower, leader)
  std::vector<std::string> keys(requests.size());
  std::unordered_map<std::string_view, size_t> leader_of;
  for (size_t i = 0; i < requests.size(); ++i) {
    keys[i] = ExactKey(requests[i]);
    if (cache != nullptr) {
      if (auto hit = cache->Lookup(keys[i])) {
        responses[i] = *hit;
        hits.push_back(i);
        continue;
      }
    }
    const auto [it, inserted] = leader_of.emplace(keys[i], i);
    if (!inserted) {
      followers.emplace_back(i, it->second);
      continue;
    }
    shares_sweeps[i] = on_miss(i);
    misses.push_back(i);
  }
  // Hits are final already: they go out before anything computes.
  if (on_ready && !hits.empty()) on_ready(hits, responses);

  // Sweep groups: leaders whose estimator shares work across τ and that
  // match in everything but τ draw the same pairs, so one pass answers
  // them all.
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> group_of_leader(requests.size());
  std::unordered_map<std::string, size_t> group_of;
  for (const size_t i : misses) {
    if (shares_sweeps[i]) {
      const auto [it, inserted] =
          group_of.emplace(SweepKey(requests[i]), groups.size());
      if (!inserted) {
        group_of_leader[i] = it->second;
        groups[it->second].push_back(i);
        continue;
      }
    }
    group_of_leader[i] = groups.size();
    groups.push_back({i});
  }
  std::vector<std::vector<std::pair<size_t, size_t>>> group_followers(
      groups.size());
  for (const auto& [follower, leader] : followers) {
    group_followers[group_of_leader[leader]].emplace_back(follower, leader);
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

  // Pool tasks, one per chunk of consecutive trials of one group (step 3
  // in estimation_engine.h). A chunk writes trial t's estimates into slot t
  // of the group's MemberTrials — the batch holds one double per trial per
  // τ, what in-order aggregation keeps anyway — and its integer totals into
  // its own row, so chunks share no lock. One flat ParallelFor — nesting
  // one per group would add no concurrency (thread_pool.h).
  //
  // A group's tasks are consecutive and groups follow one another, and
  // ParallelFor claims indices in increasing order and runs each claim's
  // indices in order. So when one claim bundles group g's last task with
  // g + 1's first, g's task runs first: no group waits on a later one's
  // tasks to finish.
  constexpr size_t kChunksPerThread = 4;
  struct Task {
    size_t group;
    size_t begin, end;
    std::vector<MemberTrials> totals;  // integer parts only, per member
    uint64_t start_ns = 0;
  };
  std::vector<Task> tasks;
  std::vector<size_t> first_task(groups.size() + 1, 0);
  std::vector<std::atomic<size_t>> chunks_left(groups.size());
  std::vector<std::vector<MemberTrials>> trials(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const EstimateRequest& leader = requests[groups[g].front()];
    trials[g].assign(groups[g].size(),
                     {.estimates = std::vector<double>(leader.trials)});
    // An error-bounded group (max_rel_error is part of SweepKey, so shared
    // by every member) is one chunk: its later trials may never be needed.
    // num_threads 0 runs inline, like 1.
    const size_t chunks =
        leader.max_rel_error > 0.0
            ? 1
            : std::min(leader.trials,
                       kChunksPerThread * std::max<size_t>(num_threads_, 1));
    for (size_t c = 0; c < chunks; ++c) {
      tasks.push_back({g, leader.trials * c / chunks,
                       leader.trials * (c + 1) / chunks,
                       std::vector<MemberTrials>(groups[g].size())});
    }
    first_task[g + 1] = tasks.size();
    chunks_left[g].store(chunks, std::memory_order_relaxed);
  }

  // Runs in the task that finished group g's last chunk, so every slot and
  // total of g is written: add the chunks' totals, aggregate each member
  // once, copy it to its followers and report them all. Latency runs from
  // the group's first task start to here, when its responses exist.
  std::mutex sink_mutex;  // on_ready calls never overlap
  const auto finish_group = [&](size_t g) {
    std::vector<MemberTrials>& members = trials[g];
    uint64_t start_ns = ~uint64_t{0};
    for (size_t k = first_task[g]; k < first_task[g + 1]; ++k) {
      const Task& task = tasks[k];
      start_ns = std::min(start_ns, task.start_ns);
      for (size_t m = 0; m < members.size(); ++m) {
        members[m].pairs_evaluated += task.totals[m].pairs_evaluated;
        members[m].num_unguaranteed += task.totals[m].num_unguaranteed;
        members[m].strata += task.totals[m].strata;
      }
    }
    for (size_t m = 0; m < members.size(); ++m) {
      responses[groups[g][m]] =
          FinishTrials(requests[groups[g][m]], members[m], start_ns);
    }
    std::vector<size_t> ready = groups[g];
    for (const auto& [follower, leader] : group_followers[g]) {
      responses[follower] = responses[leader];
      ready.push_back(follower);
    }
    if (on_ready) {
      std::lock_guard<std::mutex> lock(sink_mutex);
      on_ready(ready, responses);
    }
  };

  // Dispatch timestamp for the queue-wait histogram: how long a task sat
  // between batch dispatch and a pool worker picking it up, vs. how long
  // the task itself took. Both histograms record once per task. Timing
  // only — work order is untouched.
  const uint64_t dispatch_ns = obs::MonotonicNowNs();
  pool_.ParallelFor(tasks.size(), [&](size_t k) {
    Task& task = tasks[k];
    task.start_ns = obs::MonotonicNowNs();
    VSJ_HIST_RECORD("estimate.queue_wait_ns", task.start_ns - dispatch_ns);
    VSJ_TRACE_SPAN(execute_span, "estimate.execute_ns");
    const std::vector<size_t>& group = groups[task.group];
    const EstimateRequest& leader = requests[group.front()];
    std::vector<MemberTrials>& members = trials[task.group];
    // Members still running, in group order; trial t asks for their τ only.
    std::vector<size_t> running(group.size());
    std::iota(running.begin(), running.end(), size_t{0});
    std::vector<double> taus;
    for (size_t t = task.begin; t < task.end && !running.empty(); ++t) {
      taus.clear();
      for (const size_t m : running) taus.push_back(requests[group[m]].tau);
      std::vector<EstimationResult> results;
      {
        VSJ_TRACE_SPAN(trial_span, "estimate.trial_ns");
        results =
            run_trial(group.front(), t, taus, TrialStream(leader.seed, t));
      }
      size_t still_running = 0;
      for (size_t a = 0; a < running.size(); ++a) {
        const size_t m = running[a];
        std::vector<double>& estimates = members[m].estimates;
        estimates[t] = results[a].estimate;
        task.totals[m].pairs_evaluated += results[a].pairs_evaluated;
        if (!results[a].guaranteed) ++task.totals[m].num_unguaranteed;
        task.totals[m].strata += results[a].strata;
        // Only an error-bounded group reads its earlier slots, and it is
        // one chunk, so this task wrote every one of them.
        if (leader.max_rel_error > 0.0 &&
            WithinErrorBound(requests[group[m]],
                             std::span(estimates).first(t + 1))) {
          VSJ_COUNTER_ADD("estimate.early_exit", 1);
          VSJ_COUNTER_ADD("estimate.trials_saved", leader.trials - (t + 1));
          estimates.resize(t + 1);
        } else {
          running[still_running++] = m;
        }
      }
      running.resize(still_running);
    }
    execute_span.End();
    // acq_rel: the last chunk to finish sees every other chunk's writes.
    if (chunks_left[task.group].fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      finish_group(task.group);
    }
  });

  // Nothing reads the keys after this (leader_of's views into them
  // included), so the cache takes them.
  if (cache != nullptr) {
    for (size_t i : misses) {
      cache->Insert(std::move(keys[i]), responses[i]);
    }
  }
  return responses;
}

}  // namespace vsj
