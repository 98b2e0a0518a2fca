// DatasetView: the one read interface every estimator consumes.
//
// A DatasetView is a non-owning, trivially-copyable handle presenting a
// dataset as dense positions [0, size): position i resolves to a VectorRef
// through an indirect call into the backing storage. Four backings exist:
//
//   * VectorDataset / CsrStorage — positions are storage ids (dense);
//   * StreamingCsrStorage (default conversion) — positions enumerate the
//     *live* vectors in insertion order, so a churned store presents the
//     same dense face as a static dataset of the survivors;
//   * DatasetView::IdAddressed(streaming) — positions are raw stable ids,
//     for callers holding ids handed out by the store (the streaming
//     service's LSH index); only live ids may be dereferenced;
//   * DatasetView::Concatenated(halves) — two views end to end, U ⊕ V:
//     positions below |U| read U, position |U| + v reads V's v (the
//     general R × S join's id space).
//
// Views are invalidated by any mutation of the backing storage (including
// compaction), like iterators of standard containers.

#ifndef VSJ_VECTOR_DATASET_VIEW_H_
#define VSJ_VECTOR_DATASET_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "vsj/util/rng.h"
#include "vsj/vector/csr_storage.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {

class MappedCsrStorage;

/// Non-owning read view of a vector collection.
class DatasetView {
 public:
  /// Iterates the vectors of the view as VectorRefs.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VectorRef;
    using difference_type = std::ptrdiff_t;
    using pointer = const VectorRef*;
    using reference = VectorRef;

    Iterator() = default;
    Iterator(const DatasetView* view, VectorId position)
        : view_(view), position_(position) {}

    VectorRef operator*() const { return (*view_)[position_]; }
    Iterator& operator++() {
      ++position_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.position_ == b.position_;
    }

   private:
    const DatasetView* view_ = nullptr;
    VectorId position_ = 0;
  };

  /// Invalid view; every consumer checks valid() before use.
  DatasetView() = default;

  DatasetView(const VectorDataset& dataset)  // NOLINT(runtime/explicit)
      : self_(&dataset.storage()),
        ref_fn_(&CsrRef),
        size_(dataset.size()),
        name_(&dataset.name()) {}

  DatasetView(const CsrStorage& storage)  // NOLINT(runtime/explicit)
      : self_(&storage), ref_fn_(&CsrRef), size_(storage.size()) {}

  /// Zero-copy view of an mmapped VSJB v2 arena (defined in
  /// dataset_view.cc; positions are storage ids, like CsrStorage).
  DatasetView(const MappedCsrStorage& storage);  // NOLINT(runtime/explicit)

  /// Dense view of the live vectors, in insertion order.
  DatasetView(const StreamingCsrStorage& storage)  // NOLINT(runtime/explicit)
      : self_(&storage), ref_fn_(&StreamingLiveRef), size_(storage.num_live()) {
    storage.live_ids();  // refresh the cache the view reads through
  }

  /// Raw-id view of a streaming store: operator[] takes a stable id (live
  /// ids only); size() spans the whole id space including tombstones.
  static DatasetView IdAddressed(const StreamingCsrStorage& storage) {
    DatasetView view;
    view.self_ = &storage;
    view.ref_fn_ = &StreamingIdRef;
    view.size_ = storage.num_ids();
    return view;
  }

  /// halves[0] ⊕ halves[1]. The two views at `halves` must outlive the
  /// view, and their total size must fit VectorId.
  static DatasetView Concatenated(const DatasetView* halves) {
    DatasetView view;
    view.self_ = halves;
    view.ref_fn_ = &ConcatenatedRef;
    view.size_ = halves[0].size() + halves[1].size();
    return view;
  }

  bool valid() const { return ref_fn_ != nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  VectorRef operator[](VectorId position) const {
    return ref_fn_(self_, position);
  }

  /// Total number of unordered pairs M = C(n, 2).
  uint64_t NumPairs() const {
    const uint64_t n = size_;
    return n * (n - 1) / 2;
  }

  /// Dataset name when the backing storage carries one, "" otherwise.
  const std::string& name() const;

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, static_cast<VectorId>(size_)); }

 private:
  using RefFn = VectorRef (*)(const void*, VectorId);

  static VectorRef CsrRef(const void* self, VectorId id) {
    return static_cast<const CsrStorage*>(self)->Ref(id);
  }
  static VectorRef StreamingIdRef(const void* self, VectorId id) {
    return static_cast<const StreamingCsrStorage*>(self)->Ref(id);
  }
  static VectorRef MappedRef(const void* self, VectorId id);
  static VectorRef ConcatenatedRef(const void* self, VectorId position) {
    const auto* halves = static_cast<const DatasetView*>(self);
    const auto left_size = static_cast<VectorId>(halves[0].size());
    return position < left_size ? halves[0][position]
                                : halves[1][position - left_size];
  }
  static VectorRef StreamingLiveRef(const void* self, VectorId position) {
    const auto* storage = static_cast<const StreamingCsrStorage*>(self);
    return storage->Ref(storage->live_ids_cache_[position]);
  }

  const void* self_ = nullptr;
  RefFn ref_fn_ = nullptr;
  size_t size_ = 0;
  const std::string* name_ = nullptr;
};

/// Summary statistics of any view (O(total features)); see DatasetStats for
/// the empty / all-empty-vector conventions.
DatasetStats ComputeStats(DatasetView dataset);

/// An unordered pair of distinct vector ids.
struct VectorPair {
  VectorId first;
  VectorId second;
};

/// A uniform pair of distinct positions in [0, n): u uniform, then v
/// uniform over the other n − 1. Requires n ≥ 2. The one distinct-pair draw
/// of every sampler, so they all consume the RNG alike.
inline VectorPair SampleDistinctPair(uint64_t n, Rng& rng) {
  const auto u = static_cast<VectorId>(rng.Below(n));
  auto v = static_cast<VectorId>(rng.Below(n - 1));
  if (v >= u) ++v;
  return {u, v};
}

}  // namespace vsj

#endif  // VSJ_VECTOR_DATASET_VIEW_H_
