// Concurrent join-size estimation engine.
//
// The estimator core answers one (estimator, τ) question at a time on one
// thread; this service turns it into a long-lived engine that owns the
// dataset and the LSH index, builds the ℓ tables in parallel, answers
// *batches* of questions across a thread pool, and memoizes answers in an
// EstimateCache for optimizer-style repeated probing.
//
// Determinism: batch results are a pure function of the request list — not
// of the thread count or the scheduling order. Request i of an EstimateBatch
// draws every trial t from the stream Rng(request.seed).Fork(i).Fork(t); in
// EstimateBatchShared every request draws from Fork(0).Fork(t). Both are
// computed from values only, so running the same batch at 1 or 8 threads is
// bit-identical (tests/service/estimation_service_test.cc pins this down).
// Requests that share a stream and differ only in τ form a sweep group that
// evaluates each drawn pair once for all its τ (trial_runner.h); each
// response stays bit-identical to computing that τ alone
// (tests/service/sweep_sharing_test.cc).

#ifndef VSJ_SERVICE_ESTIMATION_SERVICE_H_
#define VSJ_SERVICE_ESTIMATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "vsj/core/estimator_registry.h"
#include "vsj/lsh/lsh_family.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/service/estimate_cache.h"
#include "vsj/service/estimate_request.h"
#include "vsj/util/thread_pool.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {

/// Construction-time configuration of an EstimationService.
struct EstimationServiceOptions {
  /// LSH functions per table and number ℓ of tables of the owned index.
  uint32_t k = 20;
  uint32_t num_tables = 1;

  /// Total concurrency of the service (1 = single-threaded). Used both for
  /// the parallel index build and for batch execution.
  size_t num_threads = 1;

  SimilarityMeasure measure = SimilarityMeasure::kCosine;

  /// Seed of the LSH family (hash function selection).
  uint64_t family_seed = 0x5eedULL;

  /// Estimator option blocks applied to every created estimator (the
  /// dataset/index/measure fields are overwritten by the service).
  EstimatorContext estimator_options;

  /// Response cache; see EstimateCache for key semantics.
  bool enable_cache = true;
  double cache_tau_bucket_width = 0.01;
  size_t cache_capacity = 1024;
  size_t cache_num_shards = EstimateCache::kDefaultNumShards;
};

/// Long-lived, thread-pooled estimation engine over one dataset.
class EstimationService {
 public:
  /// Takes ownership of `dataset`, builds the LSH family and the ℓ-table
  /// index (in parallel when options.num_threads > 1).
  explicit EstimationService(VectorDataset dataset,
                             EstimationServiceOptions options = {});

  /// Non-owning flavor: serves any DatasetView — in particular a
  /// memory-mapped VSJB v2 arena (MappedCsrStorage), where vectors are
  /// read zero-copy from the file pages. The backing storage must outlive
  /// the service.
  explicit EstimationService(DatasetView dataset,
                             EstimationServiceOptions options = {});

  DatasetView dataset() const { return view_; }
  const LshIndex& index() const { return *index_; }
  const LshFamily& family() const { return *family_; }
  const EstimationServiceOptions& options() const { return options_; }

  /// Content fingerprint of the owned dataset (the cache key component).
  uint64_t dataset_fingerprint() const { return fingerprint_; }

  /// Wall-clock seconds the constructor spent building the LSH index.
  double index_build_seconds() const { return index_build_seconds_; }

  size_t num_threads() const { return options_.num_threads; }

  EstimateCache& cache() { return cache_; }
  const EstimateCache& cache() const { return cache_; }

  /// Answers one request; equivalent to a batch of size one (the request
  /// gets stream index 0).
  EstimateResponse Estimate(const EstimateRequest& request);

  /// Answers every request of the batch. Cache lookups and insertions
  /// happen sequentially in request order; cache misses are computed across
  /// the thread pool. Results are deterministic given (requests, cache
  /// state) — independent of num_threads.
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests);

  /// The cross-connection batching flavor: every group leader draws from
  /// RNG stream index 0 — exactly what a batch of size one (Estimate())
  /// uses — instead of its batch position. Responses therefore do not
  /// depend on how requests happened to be packed into the batch, which is
  /// the contract the network server needs: a request batched with 63
  /// strangers answers bit-identically to the same request served alone.
  /// Duplicate requests still compute once (miss grouping dedups them
  /// before any stream index is assigned), and LSH-SS requests that differ
  /// only in τ share one sampling pass per trial (τ-sweep sharing).
  std::vector<EstimateResponse> EstimateBatchShared(
      const std::vector<EstimateRequest>& requests);

 private:
  /// Common batch body; `shared_stream` picks stream index 0 (shared) or
  /// the batch position (legacy positional decorrelation) for leaders.
  std::vector<EstimateResponse> EstimateBatchImpl(
      const std::vector<EstimateRequest>& requests, bool shared_stream);
  /// Shared tail of both constructors: index build + estimator context.
  void BuildIndexAndContext();

  /// Returns the shared estimator instance serving `request` —
  /// constructed on first use and keyed by estimator name plus any
  /// engaged sampling overrides (an overridden request gets its own
  /// instance with the overrides folded into its LSH-SS options).
  /// Estimate() is const on estimators, so one instance serves all
  /// threads.
  const JoinSizeEstimator& EstimatorFor(const EstimateRequest& request);

  EstimationServiceOptions options_;
  VectorDataset dataset_;  // empty in the non-owning flavor
  DatasetView view_;
  uint64_t fingerprint_;
  std::unique_ptr<LshFamily> family_;
  ThreadPool pool_;
  std::unique_ptr<LshIndex> index_;
  double index_build_seconds_ = 0.0;
  EstimatorContext context_;
  EstimateCache cache_;

  std::mutex estimators_mutex_;
  std::unordered_map<std::string, std::unique_ptr<JoinSizeEstimator>>
      estimators_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATION_SERVICE_H_
