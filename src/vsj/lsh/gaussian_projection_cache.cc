#include "vsj/lsh/gaussian_projection_cache.h"

#include <bit>
#include <utility>

#include "vsj/util/check.h"
#include "vsj/util/hash.h"
#include "vsj/util/thread_pool.h"

namespace vsj {

namespace {

constexpr size_t kInitialCapacity = 64;

}  // namespace

GaussianProjectionCache::GaussianProjectionCache(
    uint64_t family_tag, std::vector<uint64_t> fn_seeds)
    : family_tag_(family_tag), fn_seeds_(std::move(fn_seeds)) {
  VSJ_CHECK_MSG(!fn_seeds_.empty(), "a projection cache needs >= 1 function");
  Rehash(kInitialCapacity);
}

uint64_t GaussianProjectionCache::SlotHash(DimId dim) { return Mix64(dim); }

void GaussianProjectionCache::Rehash(size_t new_capacity) {
  std::vector<DimId> old_dims = std::move(slot_dims_);
  std::vector<uint8_t> old_states = std::move(states_);
  capacity_ = new_capacity;
  slot_dims_.assign(capacity_, 0);
  states_.assign(capacity_, kEmptySlot);
  const size_t mask = capacity_ - 1;
  for (size_t i = 0; i < old_states.size(); ++i) {
    if (old_states[i] != kOccupiedSlot) continue;
    size_t slot = SlotHash(old_dims[i]) & mask;
    while (states_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slot_dims_[slot] = old_dims[i];
    states_[slot] = kOccupiedSlot;
  }
}

size_t GaussianProjectionCache::FindOrInsertSlot(DimId dim) {
  const size_t mask = capacity_ - 1;
  size_t slot = SlotHash(dim) & mask;
  while (states_[slot] != kEmptySlot) {
    if (slot_dims_[slot] == dim) return slot;
    slot = (slot + 1) & mask;
  }
  slot_dims_[slot] = dim;
  states_[slot] = kOccupiedSlot;
  ++num_dims_;
  return slot;
}

void GaussianProjectionCache::AddDim(DimId dim) {
  VSJ_CHECK_MSG(!sealed_, "AddDim after Fill()");
  // Keep the load factor <= 1/2 so sealed lookups stay short.
  if ((num_dims_ + 1) * 2 > capacity_) {
    Rehash(std::bit_ceil(capacity_ * 2));
  }
  FindOrInsertSlot(dim);
}

void GaussianProjectionCache::AddDims(VectorRef v) {
  const DimId* dims = v.dims();
  for (size_t i = 0; i < v.size(); ++i) AddDim(dims[i]);
}

void GaussianProjectionCache::Fill(ThreadPool& pool) {
  VSJ_CHECK_MSG(!sealed_, "Fill() called twice");
  const size_t stride = RowStride();
  // Rows are dense — one per registered dim, assigned in slot order — so
  // the footprint tracks num_dims(), not the (2-4x larger) table capacity.
  row_of_slot_.assign(capacity_, 0);
  uint32_t next_row = 0;
  for (size_t slot = 0; slot < capacity_; ++slot) {
    if (states_[slot] == kOccupiedSlot) row_of_slot_[slot] = next_row++;
  }
  values_.assign(static_cast<size_t>(next_row) * stride, 0.0);
  // Rows are independent; any schedule produces the same table.
  pool.ParallelFor(capacity_, [&](size_t slot) {
    if (states_[slot] != kOccupiedSlot) return;
    const DimId dim = slot_dims_[slot];
    double* row =
        values_.data() + static_cast<size_t>(row_of_slot_[slot]) * stride;
    for (size_t f = 0; f < stride; ++f) {
      row[f] = GaussianFromHash(dim, fn_seeds_[f]);
    }
  });
  sealed_ = true;
}

size_t GaussianProjectionCache::MemoryBytes() const {
  return slot_dims_.capacity() * sizeof(DimId) +
         states_.capacity() * sizeof(uint8_t) +
         row_of_slot_.capacity() * sizeof(uint32_t) +
         values_.capacity() * sizeof(double) +
         fn_seeds_.capacity() * sizeof(uint64_t);
}

}  // namespace vsj
