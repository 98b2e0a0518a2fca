#include "vsj/service/tenant_registry.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <utility>

#include "vsj/core/degree_sampling.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/fault/fault.h"
#include "vsj/obs/obs.h"

namespace vsj {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Tenant::Tenant(std::string name, std::string snapshot_path,
               std::unique_ptr<StreamingEstimationService> engine,
               uint64_t max_pairs_per_request)
    : name_(std::move(name)),
      snapshot_path_(std::move(snapshot_path)),
      max_pairs_per_request_(max_pairs_per_request),
      budget_(engine->options().lsh_ss),
      num_tables_(engine->options().num_tables),
      engine_(std::move(engine)),
      streaming_(static_cast<StreamingEstimationService*>(engine_.get())),
      persisted_epoch_(streaming_->epoch()) {
  PublishNumLive();
}

Tenant::Tenant(std::string name, std::string snapshot_path,
               std::unique_ptr<MappedCsrStorage> storage,
               std::unique_ptr<EstimationService> engine,
               uint64_t max_pairs_per_request)
    : name_(std::move(name)),
      snapshot_path_(std::move(snapshot_path)),
      max_pairs_per_request_(max_pairs_per_request),
      budget_(engine->options().lsh_ss),
      num_tables_(engine->options().num_tables),
      mapped_(std::move(storage)),
      engine_(std::move(engine)) {
  PublishNumLive();
}

void Tenant::PublishNumLive() {
  num_live_.store(streaming_ != nullptr ? streaming_->num_live()
                                        : mapped_->size(),
                  std::memory_order_relaxed);
}

TenantOpResult Tenant::StaticTenantRefusal() const {
  return TenantOpResult::Unsupported(
      "tenant '" + name_ + "' is a static dataset; mutations need a "
      ".vsjs streaming snapshot");
}

TenantOpResult Tenant::ValidateEstimate(const EstimateRequest& request) const {
  // The engines enforce these rules with VSJ_CHECK (an abort); the server
  // must turn them into bad_request responses instead, so they are
  // re-checked here before any engine call. The rules are the engine's.
  if (const char* error = ValidateEstimateRequest(request)) {
    return TenantOpResult::BadRequest(error);
  }
  if (const char* error = engine_->CheckEstimator(request)) {
    return TenantOpResult::BadRequest("tenant '" + name_ +
                                      "' cannot serve estimator '" +
                                      request.estimator_name + "': " + error);
  }
  // Admission by predicted work. A concurrent mutation may move n by a
  // few vectors between this check and the batch; the limit is a bound on
  // the order of the work, not an exact count.
  const uint64_t n = num_live_.load(std::memory_order_relaxed);
  const bool bifocal = request.estimator_name == "Bifocal";
  DegreeSamplingOptions degree;
  SamplingBudget budget = budget_;
  // LSH-SS(median) runs one LSH-SS per table: ℓ · (m_H + m_L) per trial.
  const uint64_t tables =
      request.estimator_name == "LSH-SS(median)" ? num_tables_ : 1;
  uint64_t per_trial = 0;
  uint64_t pairs = 0;
  bool overflow = false;
  if (bifocal) {
    // s vertices, each probed m₁ times and m₂ more when it looks dense.
    degree = ResolveDegreeSamplingOptions(n);
    uint64_t probes = 0;
    overflow = __builtin_add_overflow(degree.coarse_probes,
                                      degree.refined_probes, &probes) ||
               __builtin_mul_overflow(degree.num_vertices, probes,
                                      &per_trial);
  } else {
    ApplySamplingOverrides(request, &budget);
    budget = ResolveBudget(budget, n);
    uint64_t per_table = 0;
    overflow =
        __builtin_add_overflow(budget.sample_size_h, budget.sample_size_l,
                               &per_table) ||
        __builtin_mul_overflow(per_table, tables, &per_trial);
  }
  overflow = overflow || __builtin_mul_overflow(
                             per_trial, uint64_t{request.trials}, &pairs);
  if (overflow || pairs > max_pairs_per_request_) {
    const std::string per_trial_formula =
        bifocal ? "Bifocal s " + std::to_string(degree.num_vertices) +
                      " x (m1 " + std::to_string(degree.coarse_probes) +
                      " + m2 " + std::to_string(degree.refined_probes) + ")"
                : "(m_H " + std::to_string(budget.sample_size_h) +
                      " + m_L " + std::to_string(budget.sample_size_l) +
                      ")" +
                      (tables > 1 ? " x " + std::to_string(tables) + " tables"
                                  : "");
    return TenantOpResult::BadRequest(
        "predicted work of " + std::to_string(request.trials) + " trials x " +
        per_trial_formula + " = " +
        (overflow ? std::string("more than 2^64") : std::to_string(pairs)) +
        " pair draws exceeds --max-pairs-per-request " +
        std::to_string(max_pairs_per_request_));
  }
  return TenantOpResult::Ok();
}

std::vector<EstimateResponse> Tenant::EstimateBatchShared(
    const std::vector<EstimateRequest>& requests, const ReadySink& on_ready) {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_->EstimateBatch(requests, on_ready);
}

TenantOpResult Tenant::Insert(VectorId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streaming_ == nullptr) return StaticTenantRefusal();
  if (!streaming_->store().Contains(id)) {
    return TenantOpResult::BadRequest("vector_id " + std::to_string(id) +
                                      " is not in the backing store");
  }
  if (streaming_->Contains(id)) {
    return TenantOpResult::BadRequest("vector_id " + std::to_string(id) +
                                      " is already live");
  }
  streaming_->Insert(id);
  PublishNumLive();
  return TenantOpResult::Ok(streaming_->epoch());
}

TenantOpResult Tenant::Remove(VectorId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streaming_ == nullptr) return StaticTenantRefusal();
  if (!streaming_->Contains(id)) {
    return TenantOpResult::BadRequest("vector_id " + std::to_string(id) +
                                      " is not live");
  }
  streaming_->Remove(id);
  PublishNumLive();
  return TenantOpResult::Ok(streaming_->epoch());
}

TenantOpResult Tenant::Erase(VectorId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streaming_ == nullptr) return StaticTenantRefusal();
  if (!streaming_->store().Contains(id)) {
    return TenantOpResult::BadRequest("vector_id " + std::to_string(id) +
                                      " is not in the backing store");
  }
  streaming_->Erase(id);
  PublishNumLive();
  return TenantOpResult::Ok(streaming_->epoch());
}

TenantOpResult Tenant::AddVector(const std::vector<Feature>& features) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streaming_ == nullptr) return StaticTenantRefusal();
  const VectorId id = streaming_->AddVector(SparseVector(features));
  PublishNumLive();
  return TenantOpResult::Ok(id);
}

TenantStats Tenant::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantStats stats;
  const EstimateCacheStats cache = engine_->cache().stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  if (streaming_ != nullptr) {
    stats.streaming = true;
    stats.epoch = streaming_->epoch();
    stats.num_vectors = streaming_->store().num_ids();
    stats.num_live = streaming_->num_live();
    stats.dirty = streaming_->epoch() != persisted_epoch_;
  } else {
    stats.num_vectors = mapped_->size();
    stats.num_live = stats.num_vectors;
  }
  stats.checkpoint_failures = checkpoint_failures_;
  return stats;
}

bool Tenant::dirty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streaming_ != nullptr && streaming_->epoch() != persisted_epoch_;
}

IoStatus Tenant::WriteBack() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streaming_ == nullptr || streaming_->epoch() == persisted_epoch_) {
    return IoStatus::Ok();
  }
  // The epoch to record as persisted is captured before the checkpoint:
  // the engine is locked here, but being explicit keeps the invariant
  // obvious — persisted_epoch_ must describe the bytes on disk.
  const uint64_t epoch = streaming_->epoch();
  IoStatus status = [&]() -> IoStatus {
    VSJ_FAULT_IO("registry.writeback", snapshot_path_);
    // Checkpoint writes through AtomicFileWriter: tmp + fsync + rename +
    // dir fsync, so the snapshot is durably replaced or left untouched.
    return streaming_->Checkpoint(snapshot_path_);
  }();
  if (!status.ok()) {
    // Degraded mode: the tenant stays dirty and resident; callers retry
    // on the next eviction pass / Flush.
    ++checkpoint_failures_;
    last_write_back_error_ = status.ToString();
    VSJ_COUNTER_ADD("registry.checkpoint_failures", 1);
    return status;
  }
  persisted_epoch_ = epoch;
  last_write_back_error_.clear();
  return IoStatus::Ok();
}

uint64_t Tenant::checkpoint_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_failures_;
}

std::string Tenant::last_write_back_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_write_back_error_;
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 128 || name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

TenantRegistry::TenantRegistry(TenantRegistryOptions options)
    : options_(std::move(options)) {
  SweepOrphanedTmpFiles();
}

void TenantRegistry::SweepOrphanedTmpFiles() {
  DIR* dir = ::opendir(options_.root.c_str());
  if (dir == nullptr) return;  // missing root surfaces on first Acquire
  const std::string suffix = ".tmp";
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string path = options_.root + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (std::remove(path.c_str()) == 0) {
      ++swept_tmp_files_;
      VSJ_COUNTER_ADD("registry.tmp_swept", 1);
    }
  }
  ::closedir(dir);
}

TenantRegistry::~TenantRegistry() {
  // Best effort: mutations held only in memory would otherwise vanish.
  Flush();
}

IoStatus TenantRegistry::Acquire(const std::string& name,
                                 std::shared_ptr<Tenant>* tenant) {
  if (!ValidTenantName(name)) {
    return IoStatus::Fail(IoError::kNotFound,
                          "invalid tenant name '" + name + "'");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = resident_.find(name);
    if (it != resident_.end()) {
      lru_.remove(name);
      lru_.push_front(name);
      *tenant = it->second;
      VSJ_COUNTER_ADD("registry.hits", 1);
      return IoStatus::Ok();
    }
  }
  // Cold miss: open outside the registry lock, so a slow restore does not
  // stall requests for tenants that are already resident.
  VSJ_COUNTER_ADD("registry.cold_opens", 1);
  std::shared_ptr<Tenant> opened;
  IoStatus status = Open(name, &opened);
  if (!status.ok()) return status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = resident_.find(name);
    if (it != resident_.end()) {
      // Another thread won the race; its tenant is the canonical one.
      *tenant = it->second;
      lru_.remove(name);
      lru_.push_front(name);
      return IoStatus::Ok();
    }
    resident_.emplace(name, opened);
    lru_.push_front(name);
    EvictLocked(name);
  }
  *tenant = std::move(opened);
  return IoStatus::Ok();
}

IoStatus TenantRegistry::Open(const std::string& name,
                              std::shared_ptr<Tenant>* tenant) {
  const std::string stream_path = options_.root + "/" + name + ".vsjs";
  VSJ_FAULT_IO("registry.open", stream_path);
  const std::string static_path = options_.root + "/" + name + ".vsjb";
  if (FileExists(stream_path)) {
    std::unique_ptr<StreamingEstimationService> engine;
    IoStatus status = StreamingEstimationService::Restore(
        stream_path, &engine, options_.streaming_options);
    if (!status.ok()) return status;
    *tenant = std::make_shared<Tenant>(name, stream_path, std::move(engine),
                                       options_.max_pairs_per_request);
    return IoStatus::Ok();
  }
  if (FileExists(static_path)) {
    auto storage = std::make_unique<MappedCsrStorage>();
    IoStatus status = MappedCsrStorage::Open(static_path, storage.get());
    if (!status.ok()) return status;
    if (storage->size() < 2) {
      // EstimationService aborts below two vectors; surface it as a
      // snapshot problem instead.
      return IoStatus::Fail(IoError::kCorrupt,
                            "dataset has fewer than two vectors", 0,
                            static_path);
    }
    auto engine = std::make_unique<EstimationService>(
        DatasetView(*storage), options_.static_options);
    *tenant = std::make_shared<Tenant>(name, static_path, std::move(storage),
                                       std::move(engine),
                                       options_.max_pairs_per_request);
    return IoStatus::Ok();
  }
  return IoStatus::Fail(IoError::kNotFound,
                        "no snapshot for tenant '" + name + "' (tried " +
                            stream_path + " and " + static_path + ")",
                        0, stream_path);
}

void TenantRegistry::EvictLocked(const std::string& keep) {
  if (options_.max_resident == 0) return;
  // Coldest first. A dirty pinned tenant is skipped (write-back under a
  // live mutation stream could lose the mutations that land after the
  // checkpoint); clean tenants leave the map even when pinned — the
  // shared_ptr held by in-flight work keeps the engine alive.
  auto it = lru_.end();
  while (resident_.size() > options_.max_resident && it != lru_.begin()) {
    --it;
    const std::string& name = *it;
    if (name == keep) continue;
    auto found = resident_.find(name);
    std::shared_ptr<Tenant>& candidate = found->second;
    if (candidate->dirty()) {
      const bool pinned = candidate.use_count() > 1;
      if (pinned || !candidate->WriteBack().ok()) {
        // Also kept on write-back failure: dropping it would lose data.
        continue;
      }
    }
    VSJ_COUNTER_ADD("registry.evictions", 1);
    resident_.erase(found);
    it = lru_.erase(it);
  }
}

IoStatus TenantRegistry::Flush() {
  // Snapshot the resident set, then write back without the registry lock
  // (checkpoints are slow and take per-tenant locks).
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tenants.reserve(resident_.size());
    for (const auto& [name, tenant] : resident_) tenants.push_back(tenant);
  }
  IoStatus first_failure = IoStatus::Ok();
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    IoStatus status = tenant->WriteBack();
    if (!status.ok() && first_failure.ok()) first_failure = status;
  }
  return first_failure;
}

std::vector<std::string> TenantRegistry::ResidentNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<std::string>(lru_.begin(), lru_.end());
}

size_t TenantRegistry::num_resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_.size();
}

}  // namespace vsj
