// An LSH index I_G = {D_g1, ..., D_gℓ}: ℓ tables over one dataset.
//
// Table t uses hash functions [t·k, (t+1)·k) of the family, matching the
// paper's construction of choosing ℓ functions g_i from G independently.
// Single-table estimators (§4, §5) run against `table(0)`; the multi-table
// estimators of Appendix B.2.1 (median, virtual bucket) use all ℓ tables.

#ifndef VSJ_LSH_LSH_INDEX_H_
#define VSJ_LSH_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "vsj/lsh/lsh_family.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/util/thread_pool.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Immutable collection of ℓ LSH tables built over one dataset.
class LshIndex {
 public:
  /// Builds ℓ tables with k functions each. The family and dataset must
  /// outlive the index.
  ///
  /// The signature computation — the dominant O(ℓ·n·k·features) cost — is
  /// partitioned across `pool`, or runs inline when it is null; bucket
  /// grouping stays sequential per table, so the resulting index is
  /// bit-identical whatever the pool. The pool is only used during
  /// construction and not retained.
  LshIndex(const LshFamily& family, DatasetView dataset, uint32_t k,
           uint32_t num_tables, ThreadPool* pool = nullptr);

  uint32_t k() const { return k_; }
  uint32_t num_tables() const { return static_cast<uint32_t>(tables_.size()); }

  const LshTable& table(uint32_t t) const { return *tables_[t]; }
  const LshFamily& family() const { return *family_; }
  DatasetView dataset() const { return dataset_; }

  /// True iff u and v share a bucket in at least one table (the
  /// virtual-bucket membership test of Appendix B.2.1).
  bool SameBucketInAnyTable(VectorId u, VectorId v) const;

  /// Total memory of all tables (paper's accounting; see LshTable).
  size_t MemoryBytes() const;

 private:
  const LshFamily* family_;
  DatasetView dataset_;
  uint32_t k_;
  std::vector<std::unique_ptr<LshTable>> tables_;
};

}  // namespace vsj

#endif  // VSJ_LSH_LSH_INDEX_H_
