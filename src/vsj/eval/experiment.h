// Trial runner: repeats an estimator R times over a sweep of thresholds and
// collects every trial's outcome, the protocol behind every figure of the
// paper's §6 ("we report figures over 100 experiments").
//
// Trial t is one EstimateSweep(taus, TrialStream(seed, t)) — exactly what
// the serving engines (service/estimation_engine.h) run for the requests
// {name, τ_j, trials, seed} — so the estimates behind a figure cell are,
// bit for bit, the ones a server asked the same question would average.

#ifndef VSJ_EVAL_EXPERIMENT_H_
#define VSJ_EVAL_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/eval/metrics.h"

namespace vsj {

/// Raw outcome of R repeated estimates at one threshold.
struct TrialSeries {
  double tau = 0.0;
  std::vector<double> estimates;
  std::vector<uint64_t> pairs_evaluated;
  size_t num_unguaranteed = 0;  // trials flagged `guaranteed = false`
  /// Mean wall-clock time of one whole sweep trial (every τ of the call),
  /// so equal across the series of one RunTrials call.
  double mean_runtime_ms = 0.0;
};

/// Runs `trials` independent estimates of J(τ) for every τ of `taus` and
/// returns one series per τ, in order. Trial t is a single sweep on
/// TrialStream(seed, t), so results are reproducible, adding trials never
/// perturbs earlier ones, and sharing estimators evaluate each drawn pair
/// once per trial for the whole sweep.
std::vector<TrialSeries> RunTrials(const JoinSizeEstimator& estimator,
                                   const std::vector<double>& taus,
                                   size_t trials, uint64_t seed);

}  // namespace vsj

#endif  // VSJ_EVAL_EXPERIMENT_H_
