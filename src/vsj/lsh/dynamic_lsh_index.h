// A dynamic LSH index: ℓ DynamicLshTables kept consistent under
// Insert/Remove — the online counterpart of LshIndex.
//
// Table t uses hash functions [t·k, (t+1)·k) of the family, matching the
// static index's construction, so a dynamic index and a static index built
// from the same (family, k, ℓ) over the same live set partition the vectors
// identically. On top of the tables the index maintains the list of live
// vector ids with O(1) membership updates and O(1) uniform sampling — the
// SampleL side of streaming LSH-SS needs uniform live pairs, which the
// per-table structures alone cannot provide.

#ifndef VSJ_LSH_DYNAMIC_LSH_INDEX_H_
#define VSJ_LSH_DYNAMIC_LSH_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vsj/lsh/dynamic_lsh_table.h"
#include "vsj/lsh/lsh_family.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Mutable collection of ℓ DynamicLshTables plus the live-id list.
class DynamicLshIndex {
 public:
  /// Creates ℓ empty tables with k functions each. The family must outlive
  /// the index.
  DynamicLshIndex(const LshFamily& family, uint32_t k, uint32_t num_tables);

  uint32_t k() const { return k_; }
  uint32_t num_tables() const { return static_cast<uint32_t>(tables_.size()); }
  const LshFamily& family() const { return *family_; }

  const DynamicLshTable& table(uint32_t t) const { return *tables_[t]; }

  size_t num_vectors() const { return live_.size(); }

  /// Live vector ids in an order determined only by the Insert/Remove
  /// history (swap-pop on removal), never by scheduling.
  const std::vector<VectorId>& live_ids() const { return live_; }

  /// Uniform random live id. Requires num_vectors() > 0.
  VectorId SampleLiveId(Rng& rng) const {
    return live_[rng.Below(live_.size())];
  }

  /// Inserts `id` into every table; `id` must not be present. Hashing
  /// reuses the index-owned scratch (and its attached projection cache),
  /// so the ℓ HashRange calls of one insert allocate nothing once warm.
  void Insert(VectorId id, VectorRef vector);

  /// Removes `id` from every table; it must be present.
  void Remove(VectorId id);

  bool Contains(VectorId id) const { return live_position_.count(id) > 0; }

  /// True iff both vectors are live and share a bucket in at least one
  /// table (the virtual-bucket membership test of Appendix B.2.1).
  bool SameBucketInAnyTable(VectorId u, VectorId v) const;

  /// Attaches a Gaussian projection cache consulted by every subsequent
  /// Insert (SimHash skips re-deriving hyperplane components for cached
  /// dimensions; hashes are bit-identical either way). The cache must
  /// belong to this index's family, cover functions [0, k·ℓ), and outlive
  /// the index. nullptr detaches.
  void AttachProjectionCache(const GaussianProjectionCache* cache) {
    scratch_.gaussian_cache = cache;
  }

  /// Snapshot support: per-table replay orders (entry t is
  /// table(t).ReplayOrder()). Together with live_ids() this captures every
  /// sampling-relevant bit of the index; the hash functions themselves are
  /// not persisted — they rebuild from (family seed, k, ℓ).
  std::vector<std::vector<VectorId>> TableReplayOrders() const;

  /// Snapshot support: rebuilds a freshly constructed (empty) index so its
  /// sampling state is identical to the checkpointed one. `table_orders[t]`
  /// is replayed through table t (reproducing bucket slot order and
  /// within-bucket member order), and the live list is restored to
  /// `live_order` verbatim (SampleLiveId indexes it directly). Each
  /// table_orders[t] must be a permutation of `live_order`; ids resolve
  /// through `vectors`.
  void RestoreReplay(const std::vector<VectorId>& live_order,
                     const std::vector<std::vector<VectorId>>& table_orders,
                     DatasetView vectors);

 private:
  const LshFamily* family_;
  uint32_t k_;
  std::vector<std::unique_ptr<DynamicLshTable>> tables_;
  std::vector<VectorId> live_;
  std::unordered_map<VectorId, size_t> live_position_;  // id -> index in live_
  // Mutation-path hashing scratch. Mutations are externally synchronized
  // (the streaming service's contract), so one scratch suffices; read-only
  // methods never touch it.
  HashScratch scratch_;
};

}  // namespace vsj

#endif  // VSJ_LSH_DYNAMIC_LSH_INDEX_H_
