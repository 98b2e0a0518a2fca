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
// Sealing rule: the table is filled in two phases. AddDim() registers
// dimensions single-threaded (slot assignment may rehash); Fill() computes
// all rows — trivially parallel, each row is independent — and seals the
// table. Row() returns nullptr until sealed, so a partially filled cache
// can never leak garbage into a hash; after sealing the cache is
// immutable and safe to share read-only across ParallelFor workers.
// Dimensions absent from the cache (e.g. vectors appended to a streaming
// store after construction) miss to nullptr and the caller recomputes on
// the fly — bit-identical either way, since rows hold exactly the values
// GaussianFromHash would produce.

#ifndef VSJ_LSH_GAUSSIAN_PROJECTION_CACHE_H_
#define VSJ_LSH_GAUSSIAN_PROJECTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsj/vector/vector_ref.h"

namespace vsj {

class ThreadPool;

/// Sealed, read-only shareable (dim → k Gaussians) table for one family.
class GaussianProjectionCache {
 public:
  /// `family_tag` identifies the owning family (SimHash passes its mixed
  /// seed) so a hash path can reject a cache built for different hash
  /// functions. `fn_seeds[f]` is the per-function seed fed to
  /// GaussianFromHash; rows hold values for functions [0, fn_seeds.size()).
  GaussianProjectionCache(uint64_t family_tag, std::vector<uint64_t> fn_seeds);

  /// Registers `dim` (idempotent). Pre-seal only; single-threaded.
  void AddDim(DimId dim);

  /// Registers every dimension of `v` (convenience for fill passes).
  void AddDims(VectorRef v);

  /// Computes all rows across `pool` and seals the table.
  void Fill(ThreadPool& pool);

  bool sealed() const { return sealed_; }
  uint64_t family_tag() const { return family_tag_; }
  uint32_t num_functions() const {
    return static_cast<uint32_t>(fn_seeds_.size());
  }
  size_t num_dims() const { return num_dims_; }

  /// The row of `dim`: num_functions() contiguous doubles, value f equal to
  /// GaussianFromHash(dim, fn_seeds[f]). nullptr when `dim` is not cached
  /// or the table is not sealed yet. Rows are stored densely (one per
  /// registered dim, not per hash slot), addressed through the slot's row
  /// index.
  const double* Row(DimId dim) const {
    if (!sealed_) return nullptr;
    const size_t mask = capacity_ - 1;
    size_t slot = SlotHash(dim) & mask;
    while (states_[slot] != kEmptySlot) {
      if (slot_dims_[slot] == dim) {
        return values_.data() + static_cast<size_t>(row_of_slot_[slot]) * RowStride();
      }
      slot = (slot + 1) & mask;
    }
    return nullptr;
  }

  /// Table + rows footprint.
  size_t MemoryBytes() const;

 private:
  static constexpr uint8_t kEmptySlot = 0;
  static constexpr uint8_t kOccupiedSlot = 1;

  static uint64_t SlotHash(DimId dim);
  size_t RowStride() const { return fn_seeds_.size(); }
  void Rehash(size_t new_capacity);
  size_t FindOrInsertSlot(DimId dim);

  uint64_t family_tag_;
  std::vector<uint64_t> fn_seeds_;
  size_t capacity_ = 0;  // power of two
  size_t num_dims_ = 0;
  std::vector<DimId> slot_dims_;
  std::vector<uint8_t> states_;
  std::vector<uint32_t> row_of_slot_;  // slot -> dense row index (sealed)
  std::vector<double> values_;  // num_dims() × num_functions(), dense rows
  bool sealed_ = false;
};

}  // namespace vsj

#endif  // VSJ_LSH_GAUSSIAN_PROJECTION_CACHE_H_
