// Deterministic trial execution of the engine core.
//
// An engine answers a request by running `trials` independent estimator
// draws and aggregating them into an EstimateResponse (mean, sample
// std-dev, standard error, sampling cost); EstimationEngine's cached-batch
// protocol (estimation_engine.h) calls this for every group of misses. The
// determinism contract lives here in one place: trial t of every request
// draws from the value-derived stream Rng(seed).Fork(0).Fork(t) — never
// from its batch position or the scheduling order — so a response is a
// pure function of (request, dataset state): bit-identical at any thread
// count, in any batch, and to the same request asked alone.
//
// τ-sweep sharing: leaders that match in everything but τ (equal SweepKeys,
// estimate_request.h) draw the very same streams, so they run as one
// *sweep group* — trial t evaluates each drawn pair once for every τ still
// running — and each τ's response is bit-identical to computing it alone.
// Inside a trial, SampleH evaluates each distinct stratum-H pair once
// (core/stratified_sampling.h); when the stratum holds fewer pairs than the
// trial draws, repeats are certain (pigeonhole).
//
// Task shape: because trial t's stream depends on nothing but (seed, t),
// the trials of a group need not run in order. EstimationEngine splits a
// group without an error bound into chunks of consecutive trials, one pool
// task each, writing trial t's estimates into MemberTrials slot t; the task
// finishing the group's last chunk calls FinishTrials. A group with
// max_rel_error > 0 runs RunDeterministicTrials, trial by trial, since its
// later trials may never be needed. Either way FinishTrials is the one
// aggregation, over estimates in trial order, so the response is the
// same.

#ifndef VSJ_SERVICE_TRIAL_RUNNER_H_
#define VSJ_SERVICE_TRIAL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/service/estimate_request.h"

namespace vsj {

/// The one stream convention: trial t of `request` draws from
/// Rng(request.seed).Fork(0).Fork(t).
Rng TrialStream(const EstimateRequest& request, size_t t);

/// Trial t of a sweep group on `rng`, the stream Rng(seed).Fork(0).Fork(t):
/// one EstimationResult per τ of `taus`, result j bit-identical to a
/// single-τ trial of taus[j] on the same stream. `leader` is the batch
/// index of the group's first request (it names the estimator and the
/// sampling overrides every member shares).
using SweepTrialFn = std::function<std::vector<EstimationResult>(
    size_t leader, size_t t, std::span<const double> taus, const Rng& rng)>;

/// One group member's trials: every estimate in trial order, and the
/// integer totals (order-insensitive, so chunks may add them in any order).
struct MemberTrials {
  std::vector<double> estimates;
  uint64_t pairs_evaluated = 0;
  uint64_t num_unguaranteed = 0;
};

/// `request`'s response from its `trials` (mean, sample std-dev, standard
/// error, sampling cost). Its `estimate.latency_ns.*` histogram records the
/// time from `start_ns` (obs::MonotonicNowNs when the group's first task
/// started) until now.
EstimateResponse FinishTrials(const EstimateRequest& request,
                              const MemberTrials& trials, uint64_t start_ns);

/// Runs the trials of one sweep group — `group` indexes `requests` and its
/// members match in everything but τ — and aggregates one response per
/// member (in `group` order). Every request must have trials > 0. Trial t
/// asks `run_trial` for every τ still running. With max_rel_error > 0 a τ
/// drops out once at least two of its trials have run and its running
/// standard error of the mean is inside the requested relative band (see
/// EstimateRequest::max_rel_error); its response's `trials` reports the
/// count actually run. Latency is measured from this call.
std::vector<EstimateResponse> RunDeterministicTrials(
    const std::vector<EstimateRequest>& requests,
    std::span<const size_t> group, const SweepTrialFn& run_trial);

}  // namespace vsj

#endif  // VSJ_SERVICE_TRIAL_RUNNER_H_
