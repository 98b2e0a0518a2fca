// Deterministic trial execution shared by the service engines.
//
// Both EstimationService and StreamingEstimationService answer a request by
// running `trials` independent estimator draws and aggregating them into an
// EstimateResponse (mean, sample std-dev, standard error, sampling cost).
// The determinism contract lives here in one place: trial t of every
// request draws from the value-derived stream Rng(seed).Fork(0).Fork(t) —
// never from its batch position or the scheduling order — so a response
// is a pure function of (request, dataset state): bit-identical at any
// thread count, in any batch, and to the same request asked alone.
//
// τ-sweep sharing: leaders that match in everything but τ draw the very
// same streams, so they run as one *sweep group* — trial t evaluates each
// drawn pair once for every τ still running — and each τ's response is
// bit-identical to computing it alone.

#ifndef VSJ_SERVICE_TRIAL_RUNNER_H_
#define VSJ_SERVICE_TRIAL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/service/estimate_cache.h"
#include "vsj/service/estimate_request.h"
#include "vsj/util/thread_pool.h"

namespace vsj {

/// Trial t of a sweep group on `rng`, the stream Rng(seed).Fork(0).Fork(t):
/// one EstimationResult per τ of `taus`, result j bit-identical to a
/// single-τ trial of taus[j] on the same stream. `leader` is the batch
/// index of the group's first request (it names the estimator and the
/// sampling overrides every member shares).
using SweepTrialFn = std::function<std::vector<EstimationResult>(
    size_t leader, size_t t, std::span<const double> taus, const Rng& rng)>;

/// Runs the trials of one sweep group — `group` indexes `requests` and its
/// members match in everything but τ — and aggregates one response per
/// member (in `group` order). Every request must have trials > 0. Trial t
/// asks `run_trial` for every τ still running. With max_rel_error > 0 a τ
/// drops out once at least two of its trials have run and its running
/// standard error of the mean is inside the requested relative band (see
/// EstimateRequest::max_rel_error); its response's `trials` reports the
/// count actually run.
std::vector<EstimateResponse> RunDeterministicTrials(
    const std::vector<EstimateRequest>& requests,
    std::span<const size_t> group, const SweepTrialFn& run_trial);

/// The cached-batch protocol shared by the service engines:
///   0. every request must pass ValidateEstimateRequest (VSJ_CHECK);
///   1. sequential pre-pass in request order — resolve hits from `cache`,
///      group the remaining misses by compute key (estimator, exact τ
///      bits, trials, seed, error bound, sampling overrides — the cache
///      key minus the fingerprint) so each key computes once, and call
///      `on_miss(i)` once per leader so engine state (estimator instances,
///      sample contexts) is settled before workers start; on_miss returns
///      whether the leader's estimator shares work across τ;
///   2. sweep grouping — leaders whose estimator shares work and which
///      match in everything but τ form one sweep group;
///   3. parallel compute of the groups across `pool` through
///      RunDeterministicTrials and `run_trial`;
///   4. sequential post-pass — followers copy their leader's response
///      (what a cache hit on it would have served), then leaders publish
///      to `cache`.
/// Pass `cache == nullptr` to disable caching (grouping still applies).
std::vector<EstimateResponse> RunCachedBatch(
    const std::vector<EstimateRequest>& requests, EstimateCache* cache,
    uint64_t fingerprint, ThreadPool& pool,
    const std::function<bool(size_t)>& on_miss,
    const SweepTrialFn& run_trial);

}  // namespace vsj

#endif  // VSJ_SERVICE_TRIAL_RUNNER_H_
