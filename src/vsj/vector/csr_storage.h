// Columnar (CSR-style) vector storage: the arena behind every dataset.
//
// CsrStorage packs all vectors of a collection into three contiguous
// struct-of-arrays buffers — dims[], weights[], offsets[] — plus per-vector
// cached norms, so the Dot kernel streams through one allocation instead of
// pointer-chasing per-vector heap blocks (the layout idea of columnar /
// slotted-page engines, applied to the VSJ hot path).
//
// StreamingCsrStorage is the mutable counterpart for the streaming engine:
// a chunked arena (appends go to the open tail chunk; full chunks are
// sealed) with tombstone deletion and churn-triggered compaction. Vector
// ids are stable across compaction — a slot table maps id → (chunk, index)
// — so LSH indexes and caches keyed by id survive arbitrary churn. See
// DESIGN.md ("Columnar storage core") for the policy details.

#ifndef VSJ_VECTOR_CSR_STORAGE_H_
#define VSJ_VECTOR_CSR_STORAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsj/util/check.h"
#include "vsj/vector/vector_ref.h"

namespace vsj {

class MappedCsrStorage;

/// Append-once contiguous arena of sparse vectors.
class CsrStorage {
 public:
  CsrStorage() = default;

  /// Copies an mmapped (read-only) arena into a mutable heap arena — the
  /// escape hatch when a zero-copy dataset needs editing. Norms are copied
  /// verbatim. Defined in mapped_csr_storage.cc.
  static CsrStorage FromMapped(const MappedCsrStorage& mapped);

  /// Pre-allocates for `num_vectors` vectors totalling `num_features`
  /// features.
  void Reserve(size_t num_vectors, size_t num_features);

  /// Copies the vector's payload into the arena and returns its id.
  VectorId Append(VectorRef vector);

  size_t size() const { return norms_.size(); }
  bool empty() const { return norms_.empty(); }
  size_t total_features() const { return dims_.size(); }

  VectorRef Ref(VectorId id) const {
    const uint64_t begin = offsets_[id];
    return VectorRef(dims_.data() + begin, weights_.data() + begin,
                     static_cast<uint32_t>(offsets_[id + 1] - begin),
                     norms_[id], l1_norms_[id]);
  }
  VectorRef operator[](VectorId id) const { return Ref(id); }

  /// Payload bytes of the arena (dims + weights + offsets + norms).
  size_t MemoryBytes() const;

 private:
  std::vector<DimId> dims_;
  std::vector<float> weights_;
  std::vector<uint64_t> offsets_{0};  // size() + 1 entries
  std::vector<double> norms_;
  std::vector<double> l1_norms_;
};

/// Tuning knobs of the streaming arena.
struct StreamingStorageOptions {
  /// A chunk is sealed once it holds at least this many features; appends
  /// then open a fresh chunk. Bounds the copy cost of any single growth
  /// while keeping each chunk's payload contiguous.
  size_t chunk_features = 1 << 16;

  /// Compaction triggers when tombstoned ids make up at least this fraction
  /// of all ids (and min_dead_for_compaction is met). 0 disables automatic
  /// compaction.
  double compact_dead_fraction = 0.25;

  /// Minimum number of tombstones before automatic compaction fires, so
  /// tiny stores don't compact on every removal.
  size_t min_dead_for_compaction = 64;
};

/// Chunked arena with tombstones and churn-triggered compaction.
///
/// Externally synchronized, like the streaming service that owns it.
/// Mutations (Append/Remove/Compact) invalidate outstanding VectorRefs and
/// views; ids remain stable forever.
class StreamingCsrStorage {
 public:
  explicit StreamingCsrStorage(StreamingStorageOptions options = {});

  const StreamingStorageOptions& options() const { return options_; }

  /// Copies the vector into the open tail chunk and returns its stable id.
  VectorId Append(VectorRef vector);

  /// Tombstones `id` (must be live). The payload is reclaimed by the next
  /// compaction, which runs automatically once the dead fraction crosses
  /// the configured threshold.
  void Remove(VectorId id);

  /// Allocates the next id already tombstoned, with no payload — snapshot
  /// restore uses this to reproduce a churned store's id space (erased ids
  /// keep their slots, payload-free) without replaying the churn.
  VectorId AppendDead();

  /// True iff `id` was appended and not removed.
  bool Contains(VectorId id) const {
    return id < slots_.size() && slots_[id].chunk != kDeadChunk;
  }

  /// View of live vector `id` (checked: tombstoned/unknown ids abort,
  /// like every other misuse in the library); valid until the next
  /// mutation. Inline: the batch pair evaluator materializes two refs per
  /// sampled pair through this lookup, which made the out-of-line call
  /// visible in the estimate profile.
  VectorRef Ref(VectorId id) const {
    VSJ_CHECK_MSG(Contains(id), "vector %u not live in streaming storage",
                  id);
    const Slot slot = slots_[id];
    return chunks_[slot.chunk].Ref(slot.index);
  }

  /// Total ids ever appended (the id space; includes tombstones).
  size_t num_ids() const { return slots_.size(); }
  size_t num_live() const { return slots_.size() - dead_count_; }
  size_t num_chunks() const { return chunks_.size(); }

  /// Number of compactions run so far (automatic + manual).
  uint64_t compactions() const { return compactions_; }

  /// Rewrites every live payload into one fresh chunk (in id order) and
  /// drops tombstoned payloads. Ids are unchanged; refs/views are
  /// invalidated.
  void Compact();

  /// Live ids in increasing (= insertion) order; rebuilt lazily after
  /// mutations. Valid until the next mutation.
  const std::vector<VectorId>& live_ids() const;

  /// Payload bytes across all chunks (tombstoned payloads included until
  /// compaction reclaims them).
  size_t MemoryBytes() const;

 private:
  friend class DatasetView;

  static constexpr uint32_t kDeadChunk = 0xffffffffu;

  struct Slot {
    uint32_t chunk;
    VectorId index;  // position within the chunk
  };

  void MaybeCompact();

  StreamingStorageOptions options_;
  std::vector<CsrStorage> chunks_;
  std::vector<Slot> slots_;  // id -> location, kDeadChunk when tombstoned
  size_t dead_count_ = 0;         // tombstoned ids, ever
  size_t unreclaimed_dead_ = 0;   // tombstones whose payload is still stored
  uint64_t compactions_ = 0;
  mutable std::vector<VectorId> live_ids_cache_;
  mutable bool live_ids_dirty_ = false;
};

}  // namespace vsj

#endif  // VSJ_VECTOR_CSR_STORAGE_H_
