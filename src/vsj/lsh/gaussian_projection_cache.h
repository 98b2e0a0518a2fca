// Memoized SimHash hyperplane components: GaussianFromHash(dim, fn_seed)
// for every (dimension, function) pair of an index build, computed once.
//
// SimHash derives the Gaussian entry r_f[dim] on the fly so that no
// projection matrices are stored — but an index build evaluates that
// derivation O(n · ℓ·k · features) times while only O(distinct dims · ℓ·k)
// distinct values exist (a DBLP-scale corpus repeats each dimension
// hundreds of times). This cache turns the build from hash-heavy
// (Box–Muller per pair) into load-heavy: a flat open-addressed table keyed
// by dimension, one contiguous row of num_functions() doubles per
// dimension, so HashRange over functions [offset, offset+k) reads k
// consecutive doubles — exactly the layout the SIMD accumulation kernel
// (simhash_kernel.h) wants.
//
// The constructor does all the work across a pool, and the finished cache
// is immutable and safe to share read-only across ParallelFor workers:
//   * registration: each run of consecutive vectors collects its distinct
//     dims into a table of its own on a pool thread, and the run tables
//     merge in run order — the serial part is O(distinct dims · runs), not
//     a probe per feature. Every table is open-addressed over the dims it
//     holds, so memory stays bounded by the dataset's own size whatever
//     its dim ids are;
//   * fill: rows are independent, so any schedule produces the same rows.
// Dimensions absent from the cache (e.g. vectors appended to a streaming
// store after construction) miss to nullptr and the caller recomputes on
// the fly — bit-identical either way, since rows hold exactly the values
// GaussianFromHash would produce.

#ifndef VSJ_LSH_GAUSSIAN_PROJECTION_CACHE_H_
#define VSJ_LSH_GAUSSIAN_PROJECTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsj/util/hash.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

class ThreadPool;

/// Open-addressed map dim → row index: linear probing, load factor at most
/// 1/4, grown by doubling. Slots come from Fibonacci hashing (the top bits
/// of dim · 2^64/φ), which spreads a run of consecutive ids — a vocabulary's
/// term ids — almost without collisions, so nearly every probe ends at its
/// first slot.
class DimRowTable {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  DimRowTable();

  /// The row of `dim`, or kNoRow.
  uint32_t Find(DimId dim) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Home(dim); slots_[slot].row != kNoRow;
         slot = (slot + 1) & mask) {
      if (slots_[slot].dim == dim) return slots_[slot].row;
    }
    return kNoRow;
  }

  /// Maps `dim` to `row` (< kNoRow) unless `dim` is present; returns
  /// whether it was inserted.
  bool Insert(DimId dim, uint32_t row) {
    const size_t mask = slots_.size() - 1;
    size_t slot = Home(dim);
    for (; slots_[slot].row != kNoRow; slot = (slot + 1) & mask) {
      if (slots_[slot].dim == dim) return false;
    }
    Place(slot, dim, row);
    return true;
  }

  size_t size() const { return size_; }

  /// Calls `visit(dim)` for every key, in slot order.
  template <typename Visit>
  void ForEachDim(Visit&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.row != kNoRow) visit(slot.dim);
    }
  }

  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    DimId dim;
    uint32_t row;  // kNoRow marks an empty slot
  };

  /// Stores a new key at `slot`, the empty slot its probe ended at, or
  /// first doubles the table when that would pass the load bound.
  void Place(size_t slot, DimId dim, uint32_t row);

  size_t Home(DimId dim) const {
    return static_cast<size_t>((uint64_t{dim} * kHashCombineGamma) >> shift_);
  }

  std::vector<Slot> slots_;  // 2^(64 − shift_) slots
  int shift_;
  size_t size_ = 0;
};

/// Read-only shareable (dim → num_functions() Gaussians) table for one
/// family.
class GaussianProjectionCache {
 public:
  /// Registers every dimension of `dataset` and fills its rows across
  /// `pool`. `family_tag` identifies the owning family (SimHash passes its
  /// mixed seed) so a hash path can reject a cache built for different hash
  /// functions. `fn_seeds[f]` is the per-function seed fed to
  /// GaussianFromHash; rows hold values for functions [0, fn_seeds.size()).
  GaussianProjectionCache(uint64_t family_tag, std::vector<uint64_t> fn_seeds,
                          DatasetView dataset, ThreadPool& pool);

  uint64_t family_tag() const { return family_tag_; }
  uint32_t num_functions() const {
    return static_cast<uint32_t>(fn_seeds_.size());
  }
  size_t num_dims() const { return dims_.size(); }

  /// The row of `dim`: num_functions() contiguous doubles, value f equal to
  /// GaussianFromHash(dim, fn_seeds[f]); nullptr when `dim` is not cached.
  /// Rows are stored densely, one per registered dim.
  const double* Row(DimId dim) const {
    const uint32_t row = rows_.Find(dim);
    if (row == DimRowTable::kNoRow) return nullptr;
    return values_.data() + static_cast<size_t>(row) * fn_seeds_.size();
  }

  /// Table + rows footprint.
  size_t MemoryBytes() const;

 private:
  uint64_t family_tag_;
  std::vector<uint64_t> fn_seeds_;
  DimRowTable rows_;
  std::vector<DimId> dims_;     // row index -> dim
  std::vector<double> values_;  // num_dims() × num_functions(), dense rows
};

}  // namespace vsj

#endif  // VSJ_LSH_GAUSSIAN_PROJECTION_CACHE_H_
