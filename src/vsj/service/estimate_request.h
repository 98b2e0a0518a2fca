// Request/response types of the estimation service.
//
// A request names an estimator and a threshold; the service owns the
// dataset and the LSH index, so callers never touch those directly. The
// response aggregates the requested number of independent trials — mean,
// spread, an interval of J, and sampling cost — which is the unit a query
// optimizer consumes (one cardinality with an error bar), not a single
// noisy draw.

#ifndef VSJ_SERVICE_ESTIMATE_REQUEST_H_
#define VSJ_SERVICE_ESTIMATE_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "vsj/core/estimator.h"

namespace vsj {

struct SamplingBudget;

/// Most trials one request may ask for. Until a request's response is
/// final the engine keeps one EstimationResult per trial of it
/// (RunCachedBatch's ledger), so this bounds that ledger:
/// 2^16 × 112 B = 7.3 MB per request, within a budget of 2^20 doubles
/// (8.4 MB). No in-tree caller asks for more than 100.
inline constexpr size_t kMaxTrials = size_t{1} << 16;
static_assert(kMaxTrials * sizeof(EstimationResult) <=
              (size_t{1} << 20) * sizeof(double));

/// One batched estimation question: "what is J(tau) according to
/// `estimator_name`, averaged over `trials` independent runs?"
struct EstimateRequest {
  std::string estimator_name = "LSH-SS";
  double tau = 0.8;
  size_t trials = 1;
  /// Base seed of this request's RNG streams: trial t draws from
  /// Rng(seed).Fork(0).Fork(t). Equal requests over the same dataset state
  /// produce identical results wherever they sit in a batch and at any
  /// thread count (see estimation_engine.h).
  uint64_t seed = 1;

  /// Any-τ early exit: when > 0, `trials` becomes a budget. At each trial
  /// checkpoint 2, 4, 8, … (capped at `trials`), the response stops once
  /// its interval's half-width, (upper − lower) / 2, is at most
  /// `max_rel_error · estimate`; otherwise it runs the whole budget, as an
  /// estimator without an interval always does. The checkpoints do not
  /// depend on the thread count, and the trials that run are those of the
  /// full budget (each draws from its own value-derived stream), so a
  /// stopped response is a prefix of the full one. 0 disables.
  double max_rel_error = 0.0;

  /// Per-request overrides of the estimator's sampling budgets (m_H, m_L,
  /// δ of Algorithm 1), read only by LSH-SS, LSH-SS(D), LSH-SS(median) and
  /// LSH-SS(vbucket); an engine's CheckEstimator refuses them on any other
  /// estimator. nullopt defers to the engine's configured options;
  /// an engaged zero is invalid — the zero-budget NaN edges are rejected
  /// here, at the validation layer, before reaching the sampling loops.
  std::optional<uint64_t> sample_size_h;
  std::optional<uint64_t> sample_size_l;
  std::optional<uint64_t> delta;

  /// True when any sampling override is engaged.
  bool HasSamplingOverrides() const {
    return sample_size_h.has_value() || sample_size_l.has_value() ||
           delta.has_value();
  }
};

/// The request validation layer shared by both service engines (and by the
/// network server, which routes every parsed RPC through it before the
/// request can reach an engine): returns nullptr when `request` is
/// servable, else a static description of the first violated rule.
/// Rejected: zero trials or more than kMaxTrials, NaN/±inf or
/// out-of-(0,1] τ (JSON like 1e999 parses to +inf and must die here, not
/// in a sampling loop), NaN/±inf or
/// negative budgets of the error-bound knob, and engaged-zero sampling
/// overrides
/// (a zero m_H, m_L, or δ would hit the degenerate-budget edges of the
/// sampling templates; engines refuse them up front instead of serving an
/// unguaranteed 0).
const char* ValidateEstimateRequest(const EstimateRequest& request);

/// The one override fold of both engines: each engaged sampling override
/// of `request` replaces the matching field of `*budget`.
void ApplySamplingOverrides(const EstimateRequest& request,
                            SamplingBudget* budget);

/// Request identity for the cache and batch grouping. The sweep key holds
/// every field a response depends on except τ and the dataset state
/// (estimator, trials, seed, error-bound bits, overrides), so equal sweep
/// keys draw identical pair streams; the exact key adds the exact τ bits.
std::string SweepKey(const EstimateRequest& request);
std::string ExactKey(const EstimateRequest& request);

/// Aggregated outcome of one request.
struct EstimateResponse {
  double tau = 0.0;
  std::string estimator_name;

  /// Mean estimate over the trials.
  double mean_estimate = 0.0;
  /// Sample standard deviation of the per-trial estimates (0 for a single
  /// trial).
  double std_dev = 0.0;
  /// Standard error of the mean: std_dev / sqrt(trials). This is the
  /// spread of the trial means, not an error bound: it measures how much
  /// the trials disagree, and every trial shares the estimator's bias.
  double std_error = 0.0;
  /// Total pair-similarity evaluations across all trials (the paper's
  /// sampling cost model).
  uint64_t pairs_evaluated = 0;
  size_t trials = 0;
  /// Trials whose result the estimator flagged as not guaranteed (e.g.
  /// LSH-SS's safe lower bound when SampleL ran dry).
  size_t num_unguaranteed = 0;
  /// A stratified estimator's StratumTallies, pooled over the trials; empty
  /// for the other estimators, whose responses carry no interval. Not on
  /// the wire; the interval of J that is, and that the early stop reads,
  /// is EstimateInterval(strata, trials) (core/stratified_sampling.h), a
  /// function of what the response holds, so a cache hit states the same.
  StratumTallies strata;
  /// True when the response was served from the EstimateCache rather than
  /// computed.
  bool from_cache = false;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATE_REQUEST_H_
