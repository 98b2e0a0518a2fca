// Streaming join-size estimation engine: the streaming pair source of the
// engine core (estimation_engine.h) — live dataset, dynamic ℓ-table LSH
// index, an estimate cache cleared by every mutation.
//
// EstimationService answers over a frozen dataset with a one-shot index
// build; this engine keeps estimating while documents arrive and expire.
// It owns the backing StreamingCsrStorage (the chunked columnar arena of
// known vectors: appends go to the tail chunk, Erase tombstones payloads,
// and compaction reclaims them once churn crosses the configured dead
// fraction — ids stay stable throughout) and a DynamicLshIndex over the
// *live* subset; Insert/Remove maintain every table in O(ℓ log n) and bump
// a monotone epoch.
//
// Cache invalidation: every mutation bumps the epoch, and every mutation
// that can change the live set (Insert, Remove, Erase) clears the cache,
// so a cached answer always describes the current live set and its key is
// the request's ExactKey alone. AddVector keeps the cache: an appended
// vector is not live, and no answer reads the store's size. epoch()
// counts the mutations.
//
// Determinism (estimation_engine.h) carries over with the live set as the
// dataset state: trial t runs against table (t mod ℓ), and a response is a
// pure function of (request, live set).

#ifndef VSJ_SERVICE_STREAMING_ESTIMATION_SERVICE_H_
#define VSJ_SERVICE_STREAMING_ESTIMATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsj/core/streaming_lsh_ss_estimator.h"
#include "vsj/io/io_status.h"
#include "vsj/lsh/dynamic_lsh_index.h"
#include "vsj/lsh/gaussian_projection_cache.h"
#include "vsj/service/estimation_engine.h"
#include "vsj/vector/csr_storage.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {

/// Construction-time configuration of a StreamingEstimationService.
struct StreamingEstimationServiceOptions : EstimationEngineOptions {
  /// Streaming LSH-SS sampling knobs (0 = derive from live n per call).
  StreamingLshSsOptions lsh_ss;

  /// Chunk size / compaction policy of the backing arena.
  StreamingStorageOptions storage;
};

/// Long-lived estimation engine over a churning live set.
///
/// Thread safety: EstimateBatch parallelizes internally, but the engine is
/// externally synchronized — callers must not mutate (Insert/Remove/
/// AddVector) concurrently with any other method.
class StreamingEstimationService final : public EstimationEngine {
 public:
  /// Consumes `dataset`, repacking it into the backing arena (vector i
  /// keeps id i). No vector starts live; replay Insert ops to populate
  /// the index.
  explicit StreamingEstimationService(
      VectorDataset dataset, StreamingEstimationServiceOptions options = {});

  /// Id-addressed view of the backing arena: dataset()[id] is valid for
  /// every non-erased id, and stays resolvable across mutations (the view
  /// reads through the store's slot table). size() spans the id space.
  DatasetView dataset() const { return DatasetView::IdAddressed(store_); }

  /// The backing chunked arena.
  const StreamingCsrStorage& store() const { return store_; }
  const DynamicLshIndex& index() const { return index_; }
  const StreamingEstimationServiceOptions& options() const {
    return options_;
  }

  size_t num_live() const { return index_.num_vectors(); }

  /// Monotone mutation counter; bumped by AddVector, Insert, Remove and
  /// Erase.
  uint64_t epoch() const { return epoch_; }

  /// Appends a new vector to the backing store (not yet live) and returns
  /// its id.
  VectorId AddVector(const SparseVector& vector);

  /// Makes backing-store vector `id` live; it must not already be live.
  void Insert(VectorId id);

  /// Expires live vector `id`; its payload stays in the store (it may be
  /// re-Inserted later).
  void Remove(VectorId id);

  /// Expires `id` (if live) and tombstones its payload: the id can never
  /// come back and the arena reclaims the bytes at the next compaction.
  void Erase(VectorId id);

  bool Contains(VectorId id) const { return index_.Contains(id); }

  /// See EstimationEngine::EstimateBatch; answers over the current live
  /// set with streaming LSH-SS.
  using EstimationEngine::EstimateBatch;
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests,
      const ReadySink& on_ready) override;

  /// Only "LSH-SS".
  const char* CheckEstimator(const EstimateRequest& request) const override;

  /// Serializes the engine to a VSJS snapshot at `path`: the backing store
  /// (compacted on write — only live payloads are written, tombstoned ids
  /// keep empty slots), the index rebuild recipe (family seed, k, ℓ) plus
  /// the replay orders that make the rebuild sampling-identical, the live
  /// id list and the epoch. See DESIGN.md
  /// ("Snapshot & recovery") for the invariants. Implemented in
  /// service_snapshot.cc.
  IoStatus Checkpoint(const std::string& path) const;

  /// Restores a checkpointed engine into `*service`. Format-critical
  /// options (k, ℓ, family seed, measure, LSH-SS sampling sizes) come from
  /// the snapshot; runtime options (threads, cache sizing, storage
  /// chunking) from `runtime_options`. A restored engine answers every
  /// estimate bit-identically to the engine that was checkpointed, and
  /// epoch() round-trips exactly. A META whose
  /// k · ℓ exceeds kMaxHashFunctions is kCorrupt.
  static IoStatus Restore(const std::string& path,
                          std::unique_ptr<StreamingEstimationService>* service,
                          StreamingEstimationServiceOptions runtime_options = {});

 private:
  /// Restore path: adopts a rebuilt store and the checkpointed epoch;
  /// the index is replayed by Restore() right after construction.
  struct RestoreTag {};
  StreamingEstimationService(RestoreTag, StreamingCsrStorage store,
                             const StreamingEstimationServiceOptions& options,
                             uint64_t epoch);

  /// Records a mutation: advances the epoch. Every mutating method ends
  /// here; those that can change the live set clear the cache first, as
  /// its answers described the live set before them.
  void BumpEpoch();

  /// Builds and attaches the sealed Gaussian projection cache over the
  /// current backing store (ℓ·k functions), so every index mutation hashes
  /// from memoized hyperplane components. Vectors appended after
  /// construction may introduce uncached dimensions; those hash uncached,
  /// bit-identically. Called from both constructors.
  void BuildProjectionCache();

  StreamingEstimationServiceOptions options_;
  StreamingCsrStorage store_;
  uint64_t epoch_ = 0;
  std::unique_ptr<GaussianProjectionCache> projection_cache_;
  DynamicLshIndex index_;
  StreamingLshSsEstimator estimator_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_STREAMING_ESTIMATION_SERVICE_H_
