// The engine core shared by the static and streaming estimation engines.
//
// Algorithm 1 runs the same way over a one-shot LSH index and over one
// maintained under churn; only the source of the SampleH/SampleL pairs
// differs. So the serving plumbing lives here once — the common options,
// the LSH family they select, the thread pool, the estimate cache and the
// cached-batch protocol — and
// each engine (EstimationService: static index, any registered estimator;
// StreamingEstimationService: dynamic index, LSH-SS only) supplies a
// pre-pass hook settling per-leader state, the trial function, and its
// estimator-name rule. A cache key is the request's ExactKey alone: each
// engine owns its cache, the static engine's dataset never changes, and
// the streaming engine clears its cache on every mutation.
//
// Determinism: trial t of every request draws from the value-derived
// stream TrialStream(request.seed, t) (core/estimator.h) — never from its
// batch position or the scheduling order — so a response is a pure
// function of (request, dataset state): bit-identical at any thread
// count, in any batch, to the same request asked alone, and to the paper
// harness's RunTrials (eval/experiment.h) on the same seed.
//
// τ-sweep sharing: leaders that match in everything but τ (equal SweepKeys,
// estimate_request.h) draw the very same streams, so they run as one
// *sweep group* — trial t evaluates each drawn pair once for every τ still
// running — and each τ's response is bit-identical to computing it alone.
// Inside a trial, SampleH evaluates each distinct stratum-H pair once
// (core/stratified_sampling.h); when the stratum holds fewer pairs than the
// trial draws, repeats are certain (pigeonhole). Because trial t's stream
// depends on nothing but (seed, t), a group's trials need not run in order
// or on one thread (RunCachedBatch, step 3).

#ifndef VSJ_SERVICE_ESTIMATION_ENGINE_H_
#define VSJ_SERVICE_ESTIMATION_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/lsh/lsh_family.h"
#include "vsj/service/estimate_cache.h"
#include "vsj/service/estimate_request.h"
#include "vsj/util/thread_pool.h"
#include "vsj/vector/similarity.h"

namespace vsj {

/// Trial t of a sweep group on `rng`, the stream TrialStream(leader.seed, t):
/// one EstimationResult per τ of `taus`, result j bit-identical to a
/// single-τ trial of taus[j] on the same stream. `leader` is the batch
/// index of the group's first request (it names the estimator and the
/// sampling overrides every member shares).
using SweepTrialFn = std::function<std::vector<EstimationResult>(
    size_t leader, size_t t, std::span<const double> taus, const Rng& rng)>;

/// Receives a batch's responses as they become final: `ready` holds batch
/// indices and `responses` spans the whole batch, of which only the
/// entries `ready` names may be read. Across one EstimateBatch call every
/// index is reported exactly once, and the calls never overlap, but they
/// come from whichever thread finished the work — a pool thread as often
/// as the caller. Each reported response is already what EstimateBatch
/// returns for that index.
using ReadySink =
    std::function<void(std::span<const size_t> ready,
                       std::span<const EstimateResponse> responses)>;

/// Most hash functions (k · ℓ) an engine may use. An engine sizes its hash
/// functions, projection cache and signature scratch from k · ℓ, so the
/// tools refuse a larger --k × --tables before building one, and Restore
/// refuses a snapshot META asking for more as corrupt; the tree's
/// configurations use at most 40 · 10.
inline constexpr uint64_t kMaxHashFunctions = 4096;

/// Construction-time configuration common to both engines.
struct EstimationEngineOptions {
  /// LSH functions per table and number ℓ of tables of the engine's index.
  uint32_t k = 20;
  uint32_t num_tables = 1;

  /// Total concurrency (1 = single-threaded): batch execution, and the
  /// static engine's parallel index build.
  size_t num_threads = 1;

  SimilarityMeasure measure = SimilarityMeasure::kCosine;

  /// Seed of the LSH family; equal seeds give both engines identical hash
  /// functions.
  uint64_t family_seed = 0x5eedULL;

  /// Responses the cache keeps (0 = no cache); see EstimateCache for key
  /// semantics.
  size_t cache_capacity = 1024;
};

/// Owns the LSH family, the pool, the cache and the batch protocol;
/// subclasses supply the pair source.
class EstimationEngine {
 public:
  virtual ~EstimationEngine() = default;

  EstimationEngine(const EstimationEngine&) = delete;
  EstimationEngine& operator=(const EstimationEngine&) = delete;

  /// Answers one request; equivalent to a batch of size one.
  EstimateResponse Estimate(const EstimateRequest& request);

  /// Answers every request of the batch through RunCachedBatch. Each
  /// response is what Estimate() would answer for that request: how
  /// requests are packed into batches — by a CLI sweep, an optimizer or the
  /// network server coalescing 64 connections — is unobservable in the
  /// results.
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests) {
    return EstimateBatch(requests, nullptr);
  }

  /// The same, also handing each response to `on_ready` (when set) the
  /// moment it exists: cache hits once the pre-pass ends, each sweep
  /// group's members and followers as soon as the group's last trial
  /// finishes — so a caller can answer the first group of a batch while
  /// the rest still compute. The returned vector is unchanged.
  virtual std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests,
      const ReadySink& on_ready) = 0;

  /// The engine's estimator rule, asked by the batch pre-pass and by
  /// Tenant::ValidateEstimate: nullptr when this engine serves `request`'s
  /// estimator with its sampling overrides, else a static description of
  /// why not.
  virtual const char* CheckEstimator(const EstimateRequest& request) const = 0;

  const LshFamily& family() const { return *family_; }

  EstimateCache& cache() { return cache_; }
  const EstimateCache& cache() const { return cache_; }

  size_t num_threads() const { return num_threads_; }

 protected:
  explicit EstimationEngine(const EstimationEngineOptions& options);

  ThreadPool& pool() { return pool_; }

  /// The cached-batch protocol:
  ///   0. every request must pass ValidateEstimateRequest and
  ///      CheckEstimator (VSJ_CHECK);
  ///   1. sequential pre-pass in request order — build each request's
  ///      ExactKey once, resolve cache hits on it, group the misses by it
  ///      so each key computes once, and call
  ///      `on_miss(i)` once per leader so engine state is settled before
  ///      workers start; it returns whether the leader's estimator shares
  ///      work across τ;
  ///   2. sharing leaders with equal SweepKeys form one sweep group;
  ///   3. the groups compute on the pool, one task per chunk of
  ///      consecutive trials of a stage: up to 4 × num_threads chunks per
  ///      stage. A group runs its whole budget as one stage, or with
  ///      max_rel_error > 0 one stage per checkpoint (2, 4, 8, …, capped at
  ///      trials; estimate_request.h). Trial t moves `run_trial(leader, t,
  ///      running τs, TrialStream(leader.seed, t))`'s results into slot t
  ///      of each running member's ledger, grown to the stage's checkpoint
  ///      before dispatch; the task that finishes a stage's last chunk
  ///      derives each running member's response from its ledger's prefix
  ///      in trial order — so chunking never shows in the bytes — finishes
  ///      those whose budget is spent or whose interval meets the target,
  ///      copies them to their followers (what a cache hit would serve) and
  ///      hands them all to `on_ready`; the cache hits went there at the
  ///      end of step 1. The rest run on: that task dispatches their next
  ///      stage itself;
  ///   4. sequential post-pass — leaders publish to the cache in request
  ///      order, so cache state never depends on which group finished
  ///      first.
  /// With cache_capacity 0, steps 1 and 4 skip the cache.
  std::vector<EstimateResponse> RunCachedBatch(
      const std::vector<EstimateRequest>& requests,
      const std::function<bool(size_t)>& on_miss,
      const SweepTrialFn& run_trial, const ReadySink& on_ready);

 private:
  const size_t num_threads_;
  std::unique_ptr<LshFamily> family_;
  ThreadPool pool_;
  EstimateCache cache_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATION_ENGINE_H_
