#include "vsj/lsh/gaussian_projection_cache.h"

#include <algorithm>
#include <utility>

#include "vsj/util/check.h"
#include "vsj/util/thread_pool.h"

namespace vsj {

namespace {

constexpr int kInitialSlotBits = 4;

}  // namespace

DimRowTable::DimRowTable()
    : slots_(size_t{1} << kInitialSlotBits, Slot{0, kNoRow}),
      shift_(64 - kInitialSlotBits) {}

void DimRowTable::Place(size_t slot, DimId dim, uint32_t row) {
  VSJ_CHECK(row != kNoRow);
  // Keep the load factor <= 1/4 so probes stay short.
  if ((size_ + 1) * 4 > slots_.size()) {
    std::vector<Slot> old(slots_.size() * 2, Slot{0, kNoRow});
    old.swap(slots_);
    --shift_;
    const size_t mask = slots_.size() - 1;
    const auto probe = [&](DimId key) {
      size_t at = Home(key);
      while (slots_[at].row != kNoRow) at = (at + 1) & mask;
      return at;
    };
    for (const Slot& moved : old) {
      if (moved.row != kNoRow) slots_[probe(moved.dim)] = moved;
    }
    slot = probe(dim);
  }
  slots_[slot] = Slot{dim, row};
  ++size_;
}

GaussianProjectionCache::GaussianProjectionCache(
    uint64_t family_tag, std::vector<uint64_t> fn_seeds, DatasetView dataset,
    ThreadPool& pool)
    : family_tag_(family_tag), fn_seeds_(std::move(fn_seeds)) {
  VSJ_CHECK_MSG(!fn_seeds_.empty(), "a projection cache needs >= 1 function");

  // Registration: the vectors split into one run of consecutive ids per
  // pool thread, and each run collects its distinct dims in a table of its
  // own (more runs would each grow a table over much the same dims). The
  // run tables then merge in run order, assigning dense rows by first
  // sighting, and are freed before the rows are allocated.
  {
    const size_t n = dataset.size();
    const size_t runs = std::min(n, pool.concurrency());
    std::vector<DimRowTable> seen(runs);
    pool.ParallelFor(runs, [&](size_t r) {
      const auto begin = static_cast<VectorId>(n * r / runs);
      const auto end = static_cast<VectorId>(n * (r + 1) / runs);
      DimRowTable& table = seen[r];
      for (VectorId id = begin; id < end; ++id) {
        const VectorRef v = dataset[id];
        const DimId* dims = v.dims();
        for (size_t i = 0; i < v.size(); ++i) table.Insert(dims[i], 0);
      }
    });
    for (const DimRowTable& table : seen) {
      table.ForEachDim([&](DimId dim) {
        if (rows_.Insert(dim, static_cast<uint32_t>(dims_.size()))) {
          dims_.push_back(dim);
        }
      });
    }
  }

  // Fill: rows are independent; any schedule produces the same table.
  const size_t stride = fn_seeds_.size();
  values_.resize(dims_.size() * stride);
  pool.ParallelFor(dims_.size(), [&](size_t row) {
    double* out = values_.data() + row * stride;
    for (size_t f = 0; f < stride; ++f) {
      out[f] = GaussianFromHash(dims_[row], fn_seeds_[f]);
    }
  });
}

size_t GaussianProjectionCache::MemoryBytes() const {
  return rows_.MemoryBytes() + dims_.capacity() * sizeof(DimId) +
         values_.capacity() * sizeof(double) +
         fn_seeds_.capacity() * sizeof(uint64_t);
}

}  // namespace vsj
