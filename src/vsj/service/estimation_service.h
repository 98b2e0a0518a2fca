// Concurrent join-size estimation engine.
//
// The estimator core answers one (estimator, τ) question at a time on one
// thread; this service turns it into a long-lived engine that owns the
// dataset and the LSH index, builds the ℓ tables in parallel, answers
// *batches* of questions across a thread pool, and memoizes answers in an
// EstimateCache for optimizer-style repeated probing.
//
// Determinism: a response is a pure function of (request, dataset) — not
// of the thread count, the scheduling order, the batch it arrived in or
// the cache history. Every request draws trial t from the value-derived
// stream Rng(request.seed).Fork(0).Fork(t) (trial_runner.h), so the same
// request answers bit-identically at 1 or 8 threads, alone or batched
// (tests/service/estimation_service_test.cc pins this down). Requests that
// differ only in τ form a sweep group that evaluates each drawn pair once
// for all its τ; each response stays bit-identical to computing that τ
// alone (tests/service/sweep_sharing_test.cc).

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

  /// Answers one request; equivalent to a batch of size one.
  EstimateResponse Estimate(const EstimateRequest& request);

  /// Answers every request of the batch. Cache lookups and insertions
  /// happen sequentially in request order; cache misses are computed across
  /// the thread pool. Each response is what Estimate() would answer for
  /// that request: how requests are packed into batches — by a CLI sweep,
  /// an optimizer or the network server coalescing 64 connections — is
  /// unobservable in the results. Duplicate requests compute once, and
  /// LSH-SS requests that differ only in τ share one sampling pass per
  /// trial (τ-sweep sharing).
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests);

 private:
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
