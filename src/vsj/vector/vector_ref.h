// Non-owning view of one sparse vector stored as parallel (dims, weights)
// arrays — the unit of the columnar storage core.
//
// Every vector in the library, whether owned by a SparseVector, packed into
// a CsrStorage arena, or living in a streaming chunk, is read through a
// VectorRef: two raw pointers, a length, and the cached norms. The Dot /
// OverlapSize members forward to the dispatched intersection kernels in
// vector/pair_eval.h — merge / gallop (the galloping merge for skewed-size
// pairs), SIMD short rungs for long sides of at most 32 dims, and the
// scatter-probe for long balanced pairs — all of which produce
// bit-identical results (matches are accumulated in increasing-dimension
// order by every strategy).

#ifndef VSJ_VECTOR_VECTOR_REF_H_
#define VSJ_VECTOR_VECTOR_REF_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace vsj {

/// Dimension identifier (vocabulary word id).
using DimId = uint32_t;

/// Index of a vector within its dataset / storage.
using VectorId = uint32_t;

/// One (dimension, weight) pair.
struct Feature {
  DimId dim;
  float weight;

  friend bool operator==(const Feature&, const Feature&) = default;
};

/// Non-owning view of a sparse vector: strictly increasing dims, positive
/// weights, cached norms. Trivially copyable — pass by value. Invalidated
/// by whatever invalidates the underlying storage (e.g. compaction).
class VectorRef {
 public:
  /// Iterates (dim, weight) pairs, materializing Feature values on the fly
  /// so range-for over a view reads like range-for over owned features.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Feature;
    using difference_type = std::ptrdiff_t;
    using pointer = const Feature*;
    using reference = Feature;

    Iterator() = default;
    Iterator(const DimId* dims, const float* weights)
        : dims_(dims), weights_(weights) {}

    Feature operator*() const { return Feature{*dims_, *weights_}; }
    Iterator& operator++() {
      ++dims_;
      ++weights_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.dims_ == b.dims_;
    }

   private:
    const DimId* dims_ = nullptr;
    const float* weights_ = nullptr;
  };

  VectorRef() = default;
  VectorRef(const DimId* dims, const float* weights, uint32_t size,
            double norm, double l1_norm)
      : dims_(dims),
        weights_(weights),
        size_(size),
        norm_(norm),
        l1_norm_(l1_norm) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  DimId dim(size_t i) const { return dims_[i]; }
  float weight(size_t i) const { return weights_[i]; }
  Feature operator[](size_t i) const { return Feature{dims_[i], weights_[i]}; }

  const DimId* dims() const { return dims_; }
  const float* weights() const { return weights_; }

  /// Cached Euclidean norm.
  double norm() const { return norm_; }

  /// Sum of weights (L1 norm); weights are non-negative by construction.
  double l1_norm() const { return l1_norm_; }

  /// Largest dimension id + 1, or 0 when empty.
  DimId dim_bound() const { return size_ == 0 ? 0 : dims_[size_ - 1] + 1; }

  Iterator begin() const { return Iterator(dims_, weights_); }
  Iterator end() const { return Iterator(dims_ + size_, weights_ + size_); }

  /// Inner product with `other` (PairDot): merge join over sorted dims,
  /// galloping when one side is ≥ kGallopRatio× longer, SIMD or
  /// scatter-probe search for balanced pairs.
  double Dot(VectorRef other) const;

  /// Number of shared dimensions with `other` (same traversal as Dot).
  size_t OverlapSize(VectorRef other) const;

  /// Element-wise equality of (dims, weights).
  friend bool operator==(VectorRef a, VectorRef b);

 private:
  const DimId* dims_ = nullptr;
  const float* weights_ = nullptr;
  uint32_t size_ = 0;
  double norm_ = 0.0;
  double l1_norm_ = 0.0;
};

/// Size ratio at which Dot/OverlapSize switch from the linear merge to the
/// galloping merge. Both produce exactly equal results; the ratio only
/// picks the cheaper traversal.
inline constexpr size_t kGallopRatio = 8;

/// Hints the cache hierarchy to start loading the first cache line of both
/// feature columns of `v`. Used by batched pair evaluation (stratified
/// sampling draws pairs ahead of evaluating them). A dblp-like vector
/// (~14 dims) fits each column in one line, so this hides most of a random
/// pair's pointer-chase latency there; a nyt-like vector's dims span about
/// 15 lines, and only the first is hinted.
inline void PrefetchFeatures(VectorRef v) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(v.dims());
  __builtin_prefetch(v.weights());
#else
  (void)v;
#endif
}

}  // namespace vsj

#endif  // VSJ_VECTOR_VECTOR_REF_H_
