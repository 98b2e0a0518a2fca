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

#ifndef VSJ_SERVICE_TRIAL_RUNNER_H_
#define VSJ_SERVICE_TRIAL_RUNNER_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/service/estimate_request.h"

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

}  // namespace vsj

#endif  // VSJ_SERVICE_TRIAL_RUNNER_H_
