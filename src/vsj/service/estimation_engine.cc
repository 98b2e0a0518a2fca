#include "vsj/service/estimation_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "vsj/core/stratified_sampling.h"
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

/// `request`'s response from the first `done` trials of its ledger, taken
/// in trial order: the mean, sample std-dev and standard error of their
/// estimates, their sampling cost and pooled strata.
EstimateResponse Aggregate(const EstimateRequest& request,
                           std::span<const EstimationResult> ledger,
                           size_t done) {
  EstimateResponse response;
  response.tau = request.tau;
  response.estimator_name = request.estimator_name;
  response.trials = done;
  const std::span<const EstimationResult> trials = ledger.first(done);
  double sum = 0.0;
  for (const EstimationResult& trial : trials) {
    sum += trial.estimate;
    response.pairs_evaluated += trial.pairs_evaluated;
    if (!trial.guaranteed) ++response.num_unguaranteed;
    response.strata += trial.strata;
  }
  response.mean_estimate = sum / static_cast<double>(done);
  if (done > 1) {
    double sq = 0.0;
    for (const EstimationResult& trial : trials) {
      const double d = trial.estimate - response.mean_estimate;
      sq += d * d;
    }
    response.std_dev = std::sqrt(sq / static_cast<double>(done - 1));
    response.std_error =
        response.std_dev / std::sqrt(static_cast<double>(done));
  }
  return response;
}

/// The early stop: an error-bounded response whose interval's half-width
/// is within max_rel_error of its estimate. A response without an interval
/// never meets it, so its estimator runs the whole budget.
bool MeetsErrorTarget(const EstimateRequest& request,
                      const EstimateResponse& response) {
  if (request.max_rel_error <= 0.0 || response.strata.size() == 0) {
    return false;
  }
  const Interval interval =
      EstimateInterval(response.strata, response.trials);
  return (interval.upper - interval.lower) / 2.0 <=
         request.max_rel_error * response.mean_estimate;
}

/// The trials a group has run at its checkpoint after `done`: the whole
/// budget, or for an error-bounded group the next of 2, 4, 8, … capped at
/// the budget. The checkpoints depend on nothing but the request, so where
/// a response stops does not depend on the thread count.
size_t NextCheckpoint(const EstimateRequest& leader, size_t done) {
  if (leader.max_rel_error <= 0.0) return leader.trials;
  return std::min(leader.trials, std::max<size_t>(2, 2 * done));
}

/// Counts a finished response, and records its `estimate.latency_ns.*`
/// histogram: the time from `start_ns` (obs::MonotonicNowNs when the
/// group's first task started) until now, when the response exists — not
/// the whole batch.
void RecordFinished(const EstimateRequest& request,
                    const EstimateResponse& response, uint64_t start_ns) {
  VSJ_COUNTER_ADD("estimate.requests", 1);
  VSJ_COUNTER_ADD("estimate.trials", response.trials);
  if (response.trials < request.trials) {
    VSJ_COUNTER_ADD("estimate.early_exit", 1);
    VSJ_COUNTER_ADD("estimate.trials_saved", request.trials - response.trials);
  }
  if (obs::MetricsEnabled()) {
    obs::MetricRegistry::Global()
        .GetHistogram(LatencyMetricName(request.estimator_name, request.tau))
        .Record(obs::MonotonicNowNs() - start_ns);
  }
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

  // Pool tasks, one per chunk of consecutive trials of one group's stage
  // (step 3 in estimation_engine.h). A chunk moves trial t's result into
  // slot t of each running member's ledger, which add_stage grew to the
  // stage's checkpoint before dispatch, so chunks share no lock. Every
  // group's first stage runs in one flat ParallelFor — nesting one per
  // group would add no concurrency (thread_pool.h). A group without
  // max_rel_error has one stage, its whole budget; an error-bounded group
  // runs one stage per checkpoint, and the task that finishes a stage
  // dispatches the group's next one itself, so no group waits on another.
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
    uint64_t start_ns = 0;
  };
  // Per group: its members still running, in group order, the trials they
  // have run, each member's ledger (its results by trial), its current
  // stage's tasks and how many of them are left, and when its first task
  // started.
  struct GroupRun {
    std::vector<size_t> running;
    size_t done = 0;
    std::vector<std::vector<EstimationResult>> ledgers;
    std::span<Task> stage;
    std::atomic<size_t> chunks_left{0};
    uint64_t start_ns = ~uint64_t{0};
  };
  std::vector<GroupRun> runs(groups.size());
  // Appends group g's next stage to `tasks`: the trials from those it has
  // run to its next checkpoint, in up to 4 × num_threads chunks, and grows
  // each running member's ledger to that checkpoint.
  const auto add_stage = [&](size_t g, std::vector<Task>* tasks) {
    GroupRun& run = runs[g];
    const size_t checkpoint =
        NextCheckpoint(requests[groups[g].front()], run.done);
    for (const size_t m : run.running) run.ledgers[m].resize(checkpoint);
    const size_t stage = checkpoint - run.done;
    // num_threads 0 runs inline, like 1.
    const size_t chunks =
        std::min(stage, kChunksPerThread * std::max<size_t>(num_threads_, 1));
    for (size_t c = 0; c < chunks; ++c) {
      tasks->push_back({g, run.done + stage * c / chunks,
                        run.done + stage * (c + 1) / chunks});
    }
    run.chunks_left.store(chunks, std::memory_order_relaxed);
  };
  std::vector<Task> first_stages;
  std::vector<size_t> first_task(groups.size() + 1, 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    runs[g].ledgers.resize(groups[g].size());
    runs[g].running.resize(groups[g].size());
    std::iota(runs[g].running.begin(), runs[g].running.end(), size_t{0});
    add_stage(g, &first_stages);
    first_task[g + 1] = first_stages.size();
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    runs[g].stage = std::span(first_stages)
                        .subspan(first_task[g], first_task[g + 1] -
                                                    first_task[g]);
  }

  // Runs `tasks` on the pool; the task that finishes a group's stage calls
  // finish_stage on it.
  std::function<void(std::vector<Task>&)> dispatch;

  // Runs in the task that finished group g's last chunk of its stage, so
  // every slot of it is written: finish each running member whose budget
  // is spent or whose interval meets its target, copy it to its followers
  // and report them all. The others run on: this task dispatches their
  // next stage, and returns once the group has finished. Latency runs from
  // the group's first task start to here, when a response exists.
  std::mutex sink_mutex;  // on_ready calls never overlap
  const auto finish_stage = [&](size_t g) {
    GroupRun& run = runs[g];
    for (const Task& task : run.stage) {
      run.start_ns = std::min(run.start_ns, task.start_ns);
    }
    run.done = run.stage.back().end;
    std::vector<size_t> ready;  // finished members, then their followers
    size_t still_running = 0;
    for (const size_t m : run.running) {
      const size_t i = groups[g][m];
      EstimateResponse response =
          Aggregate(requests[i], run.ledgers[m], run.done);
      if (run.done < requests[i].trials &&
          !MeetsErrorTarget(requests[i], response)) {
        run.running[still_running++] = m;
        continue;
      }
      RecordFinished(requests[i], response, run.start_ns);
      responses[i] = std::move(response);
      ready.push_back(i);
    }
    run.running.resize(still_running);
    const size_t finished = ready.size();
    for (const auto& [follower, leader] : group_followers[g]) {
      const auto members_end = ready.begin() + finished;
      if (std::find(ready.begin(), members_end, leader) != members_end) {
        responses[follower] = responses[leader];
        ready.push_back(follower);
      }
    }
    if (on_ready && !ready.empty()) {
      std::lock_guard<std::mutex> lock(sink_mutex);
      on_ready(ready, responses);
    }
    if (run.running.empty()) return;
    // run.stage views this vector until the stage after it is dispatched.
    std::vector<Task> next;
    add_stage(g, &next);
    run.stage = next;
    dispatch(next);
  };

  dispatch = [&](std::vector<Task>& tasks) {
    // Dispatch timestamp for the queue-wait histogram: how long a task sat
    // between dispatch and a pool worker picking it up, vs. how long the
    // task itself took. Both histograms record once per task. Timing only
    // — work order is untouched.
    const uint64_t dispatch_ns = obs::MonotonicNowNs();
    pool_.ParallelFor(tasks.size(), [&](size_t k) {
      Task& task = tasks[k];
      task.start_ns = obs::MonotonicNowNs();
      VSJ_HIST_RECORD("estimate.queue_wait_ns", task.start_ns - dispatch_ns);
      VSJ_TRACE_SPAN(execute_span, "estimate.execute_ns");
      const std::vector<size_t>& group = groups[task.group];
      const EstimateRequest& leader = requests[group.front()];
      GroupRun& run = runs[task.group];
      const std::vector<size_t>& running = run.running;
      // Trial t asks for the running members' τ only.
      std::vector<double> taus;
      for (const size_t m : running) taus.push_back(requests[group[m]].tau);
      for (size_t t = task.begin; t < task.end; ++t) {
        std::vector<EstimationResult> results;
        {
          VSJ_TRACE_SPAN(trial_span, "estimate.trial_ns");
          results =
              run_trial(group.front(), t, taus, TrialStream(leader.seed, t));
        }
        for (size_t a = 0; a < running.size(); ++a) {
          run.ledgers[running[a]][t] = std::move(results[a]);
        }
      }
      execute_span.End();
      // acq_rel: the last chunk to finish sees every other chunk's writes.
      if (run.chunks_left.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        finish_stage(task.group);
      }
    });
  };
  dispatch(first_stages);

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
