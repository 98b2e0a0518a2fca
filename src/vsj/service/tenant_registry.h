// Multi-tenant dataset registry of the serving layer.
//
// The network server serves many named datasets ("tenants") from one
// process. A tenant is a snapshot file under the registry root, resolved
// lazily on first use:
//
//   <root>/<name>.vsjs  — a VSJS streaming-engine snapshot. Restores into
//                         a StreamingEstimationService: mutable (insert/
//                         remove/erase/add_vector), LSH-SS only. Takes
//                         priority when both files exist.
//   <root>/<name>.vsjb  — a VSJB v2 dataset. Opened zero-copy via
//                         MappedCsrStorage (the mmap never copies vector
//                         payloads) under a static EstimationService: all
//                         registered estimators, mutations rejected as
//                         unsupported.
//
// Residency is bounded: at most `max_resident` tenants stay open, evicted
// least-recently-acquired first. Eviction is refcount-safe — tenants are
// handed out as shared_ptr, so an evicted tenant stays fully usable by
// in-flight requests and is destroyed when the last holder drops it.
// Dirty streaming tenants (mutated since load/last write-back) are
// checkpointed back to their .vsjs on eviction through AtomicFileWriter
// (tmp + fsync + rename + dir fsync, so neither a crash mid-write nor
// power loss after rename corrupts or loses the snapshot); a dirty
// tenant that is still pinned by in-flight work is skipped and retried
// at the next eviction pass rather than checkpointed under a live
// mutation stream.
//
// Degraded mode: when write-back fails (disk full, injected fault), the
// tenant is NOT dropped — it stays resident and dirty, even above the
// residency cap, because evicting it would discard the only copy of its
// mutations. The failure is counted (Tenant::checkpoint_failures,
// surfaced per-tenant through Stats() and the stats RPC) and the last
// error retained for diagnostics; the next eviction pass or Flush()
// retries. Construction sweeps the orphaned *.tmp files a killed
// checkpoint left under the root: a checkpoint killed between Open() and
// rename leaves its tmp file behind, and those bytes are by definition
// unreferenced (the rename never happened, so the real snapshot is
// intact).
//
// Thread safety: the registry is fully synchronized (one mutex for the
// resident map + LRU). Tenant serializes its own engine access with a
// per-tenant mutex, because the engines are externally-synchronized. Lock
// order is always registry → tenant, never the reverse.

#ifndef VSJ_SERVICE_TENANT_REGISTRY_H_
#define VSJ_SERVICE_TENANT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "vsj/core/stratified_sampling.h"
#include "vsj/io/io_status.h"
#include "vsj/service/estimation_service.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/vector/mapped_csr_storage.h"
#include "vsj/vector/sparse_vector.h"

namespace vsj {

/// Outcome of a tenant operation that can fail for protocol reasons
/// (as opposed to io failures, which are IoStatus).
struct TenantOpResult {
  enum class Code {
    kOk,
    kUnsupported,  ///< Op not available on this tenant flavor.
    kBadRequest,   ///< Precondition violated (unknown id, bad estimator).
  };
  Code code = Code::kOk;
  std::string message;
  /// Op-specific payload: the new vector id for AddVector, the post-op
  /// epoch for mutations.
  uint64_t value = 0;

  bool ok() const { return code == Code::kOk; }
  static TenantOpResult Ok(uint64_t value = 0) {
    return TenantOpResult{Code::kOk, "", value};
  }
  static TenantOpResult Unsupported(std::string message) {
    return TenantOpResult{Code::kUnsupported, std::move(message), 0};
  }
  static TenantOpResult BadRequest(std::string message) {
    return TenantOpResult{Code::kBadRequest, std::move(message), 0};
  }
};

/// Point-in-time tenant counters for the stats op and live profiling.
struct TenantStats {
  bool streaming = false;
  uint64_t epoch = 0;
  size_t num_vectors = 0;  ///< Backing store size (id space).
  size_t num_live = 0;     ///< Indexed vectors (streaming: live set).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  bool dirty = false;  ///< Mutations not yet written back (degraded if
                       ///< checkpoint_failures > 0 as well).
  uint64_t checkpoint_failures = 0;  ///< Failed write-back attempts.
};

/// One resident dataset with its estimation engine. All public methods
/// are internally synchronized; callers hold it as shared_ptr obtained
/// from TenantRegistry::Acquire.
class Tenant {
 public:
  /// Streaming flavor (restored from .vsjs). `max_pairs_per_request` is
  /// the admission limit of ValidateEstimate.
  Tenant(std::string name, std::string snapshot_path,
         std::unique_ptr<StreamingEstimationService> engine,
         uint64_t max_pairs_per_request);
  /// Static mmap flavor (.vsjb). `storage` must be the storage `engine`'s
  /// view reads from; the Tenant keeps it mapped for the engine's life.
  Tenant(std::string name, std::string snapshot_path,
         std::unique_ptr<MappedCsrStorage> storage,
         std::unique_ptr<EstimationService> engine,
         uint64_t max_pairs_per_request);
  ~Tenant() = default;

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }
  const std::string& snapshot_path() const { return snapshot_path_; }
  bool is_streaming() const { return streaming_ != nullptr; }

  /// Pre-flight check of one estimate request against this tenant's
  /// engine: ValidateEstimateRequest plus the engine's CheckEstimator (the
  /// rules the engine enforces with VSJ_CHECK), then admission by
  /// predicted work: trials × (m_H + m_L) — the engine's sampling budget
  /// with the request's overrides folded in and zero fields resolved from
  /// the tenant's live vector count (ResolveBudget), times ℓ for
  /// LSH-SS(median), which samples every table; for Bifocal, trials ×
  /// s · (m₁ + m₂) from ResolveDegreeSamplingOptions — must not exceed
  /// max_pairs_per_request. Returns kOk or kBadRequest — a rejected request
  /// must not reach EstimateBatchShared. Takes no tenant lock.
  TenantOpResult ValidateEstimate(const EstimateRequest& request) const;

  /// Forwards to the engine's EstimateBatch, so responses are
  /// bit-identical to in-process Estimate() calls regardless of how the
  /// server packed concurrent connections into the batch. Every request
  /// must have passed ValidateEstimate. `on_ready` (optional) receives each
  /// response as soon as it exists (see ReadySink); it runs under the
  /// tenant lock, so it must not call back into the tenant.
  std::vector<EstimateResponse> EstimateBatchShared(
      const std::vector<EstimateRequest>& requests,
      const ReadySink& on_ready = nullptr);

  /// Mutations; kUnsupported on static tenants. Preconditions are checked
  /// (not VSJ_CHECKed): unknown/duplicate ids come back as kBadRequest.
  TenantOpResult Insert(VectorId id);
  TenantOpResult Remove(VectorId id);
  TenantOpResult Erase(VectorId id);
  TenantOpResult AddVector(const std::vector<Feature>& features);

  TenantStats Stats() const;

  /// True when the tenant has mutations not yet written back.
  bool dirty() const;

  /// Writes the engine state back to the snapshot (streaming flavor;
  /// no-op Ok on static/clean tenants) through AtomicFileWriter: the
  /// snapshot is durably replaced or not at all. On failure the tenant
  /// stays dirty, checkpoint_failures() increments, and the error is
  /// retained in last_write_back_error().
  IoStatus WriteBack();

  /// Failed write-back attempts since load (degraded-mode signal).
  uint64_t checkpoint_failures() const;

  /// ToString() of the most recent write-back failure; empty after a
  /// successful write-back (or none ever failed).
  std::string last_write_back_error() const;

 private:
  /// The kUnsupported answer of every mutation on a static tenant.
  TenantOpResult StaticTenantRefusal() const;

  /// Publishes the live vector count ValidateEstimate reads; called under
  /// mutex_ after every mutation.
  void PublishNumLive();

  const std::string name_;
  const std::string snapshot_path_;
  const uint64_t max_pairs_per_request_;
  /// The engine's configured m_H / m_L / δ (zero = derive from n).
  const SamplingBudget budget_;
  /// The engine's ℓ, the work factor of LSH-SS(median).
  const uint64_t num_tables_;
  /// The n budgets resolve from, readable without mutex_.
  std::atomic<uint64_t> num_live_{0};

  mutable std::mutex mutex_;
  // Static tenants only; declared first so it outlives the engine's view.
  std::unique_ptr<MappedCsrStorage> mapped_;
  std::unique_ptr<EstimationEngine> engine_;
  // The engine as a streaming engine (null on static tenants), used only
  // for mutations and write-back.
  StreamingEstimationService* streaming_ = nullptr;
  /// Engine epoch the snapshot on disk reflects (streaming only).
  uint64_t persisted_epoch_ = 0;
  uint64_t checkpoint_failures_ = 0;
  std::string last_write_back_error_;
};

/// Configuration of a TenantRegistry.
struct TenantRegistryOptions {
  /// Directory holding <name>.vsjs / <name>.vsjb snapshots.
  std::string root;

  /// Resident-tenant cap; 0 = unbounded. Eviction is LRU by Acquire
  /// order, with dirty write-back (see file comment).
  size_t max_resident = 8;

  /// Engine options applied to static (.vsjb) tenants.
  EstimationServiceOptions static_options;

  /// Runtime options applied to restored streaming tenants (format-
  /// critical fields come from the snapshot itself).
  StreamingEstimationServiceOptions streaming_options;

  /// Admission limit on an estimate's predicted work, trials × (m_H +
  /// m_L) pair draws, or Bifocal's own bound (Tenant::ValidateEstimate). The default admits the
  /// paper's budgets at n = 10^6 with 32 trials, and m_L ≈ M at n = 4000
  /// with 4 trials.
  uint64_t max_pairs_per_request = uint64_t{1} << 26;
};

/// True iff `name` is acceptable as a tenant name: 1–128 chars drawn from
/// [A-Za-z0-9._-], not starting with a dot. The name is spliced into a
/// filesystem path, so this is the traversal guard ("../../etc/passwd"
/// never reaches open()).
bool ValidTenantName(const std::string& name);

/// Lazily-opening, LRU-bounded map of resident tenants.
class TenantRegistry {
 public:
  explicit TenantRegistry(TenantRegistryOptions options);
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Returns the resident tenant `name`, opening its snapshot on a cold
  /// miss. Failures:
  ///   kNotFound — invalid name, or neither <name>.vsjs nor <name>.vsjb
  ///               exists under the root (path names the .vsjs candidate);
  ///   anything else — the snapshot exists but failed to open; the
  ///               IoStatus carries the underlying path + reason.
  /// A successful Acquire marks `name` most recently used and may evict
  /// colder tenants beyond the cap (never the one just acquired).
  IoStatus Acquire(const std::string& name, std::shared_ptr<Tenant>* tenant);

  /// Writes back every dirty resident tenant; returns the first failure
  /// (but attempts all). Called on server drain so mutations survive
  /// shutdown.
  IoStatus Flush();

  /// Resident tenant names, most recently used first.
  std::vector<std::string> ResidentNames() const;

  size_t num_resident() const;

  /// Orphaned *.tmp files removed by the startup sweep.
  size_t swept_tmp_files() const { return swept_tmp_files_; }

  const TenantRegistryOptions& options() const { return options_; }

 private:
  /// Opens the snapshot for `name` (registry lock NOT held — opens can
  /// be slow and must not block unrelated tenants).
  IoStatus Open(const std::string& name, std::shared_ptr<Tenant>* tenant);

  /// Evicts beyond the cap, coldest first; `keep` is never evicted.
  /// Registry lock held.
  void EvictLocked(const std::string& keep);

  /// Removes `<root>/*.tmp` leftovers from killed checkpoints (ctor).
  void SweepOrphanedTmpFiles();

  TenantRegistryOptions options_;
  size_t swept_tmp_files_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Tenant>> resident_;
  /// Recency list, most recent first; invariant: same keys as resident_.
  std::list<std::string> lru_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_TENANT_REGISTRY_H_
