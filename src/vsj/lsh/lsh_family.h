// Locality-sensitive hash families (paper §4.1).
//
// A family H supplies an unbounded sequence of hash functions h_0, h_1, ...
// (identified by index and derived deterministically from the family seed)
// together with the family's *collision-probability curve*
//
//     p(s) = P(h(u) = h(v))   when sim(u, v) = s.
//
// The paper idealizes p(s) = s (Definition 3). MinHash achieves that exactly
// for Jaccard similarity; Charikar's hyperplane SimHash — the scheme the
// paper's evaluation uses for cosine — has p(s) = 1 − arccos(s)/π. Every
// estimator that relies on the curve (J_U, LSH-S) queries it through this
// interface, so both exact-Def.-3 and real cosine LSH are supported
// (DESIGN.md §3.3).
//
// Hashing is the index-build hot path, so HashRange takes a caller-provided
// HashScratch: reusable buffers (no per-call allocation once warm) plus an
// optional read-only GaussianProjectionCache that SimHash consults instead
// of re-deriving hyperplane components. The scratchless overload exists for
// cold paths and tests; it allocates a scratch per call.

#ifndef VSJ_LSH_LSH_FAMILY_H_
#define VSJ_LSH_LSH_FAMILY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "vsj/vector/dataset_view.h"
#include "vsj/vector/set_embedding.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/vector_ref.h"

namespace vsj {

class GaussianProjectionCache;
class ThreadPool;

/// Reusable hashing state, owned by the caller and threaded through every
/// hot-path HashRange call. One scratch per thread: the buffers are mutated
/// freely, so a scratch must never be shared between concurrent hashers
/// (the pointed-to projection cache is immutable and may be).
struct HashScratch {
  /// SimHash: the k projections of the current call.
  std::vector<double> projections;
  /// SimHash: each feature's k Gaussian components — a cached row, or one
  /// of `derived_rows`, which holds the rows of dims the cache lacks.
  std::vector<const double*> rows;
  std::vector<double> derived_rows;
  /// Per-function seed material (SimHash: fn seeds; MinHash: fold terms).
  std::vector<uint64_t> lane_seeds;
  /// The k hash values BucketKey folds.
  std::vector<uint64_t> signature;
  /// MinHash: the set embedding of the current vector.
  std::vector<SetElement> embed;
  /// Optional Gaussian cache (see GaussianProjectionCache); families
  /// that cannot use it ignore it, SimHash validates the tag before use.
  const GaussianProjectionCache* gaussian_cache = nullptr;
};

/// Abstract LSH family; implementations are stateless beyond their seed and
/// safe to share across threads.
class LshFamily {
 public:
  virtual ~LshFamily() = default;

  /// Writes h_offset(v), ..., h_{offset+k-1}(v) into `out`. Batched because
  /// implementations share one pass over the vector's features; an LSH index
  /// with ℓ tables of k functions each gives table t the range
  /// [t·k, (t+1)·k). `scratch` is reused across calls — hot loops hold one
  /// per thread.
  void HashRange(VectorRef v, uint32_t function_offset, uint32_t k,
                 uint64_t* out, HashScratch& scratch) const {
    DoHashRange(v, function_offset, k, out, scratch);
  }

  /// Convenience overload allocating a fresh scratch (cold paths, tests).
  void HashRange(VectorRef v, uint32_t function_offset, uint32_t k,
                 uint64_t* out) const {
    HashScratch scratch;
    DoHashRange(v, function_offset, k, out, scratch);
  }

  /// Value of a single hash function on `v`.
  uint64_t Hash(VectorRef v, uint32_t function_index) const {
    uint64_t out;
    HashRange(v, function_index, 1, &out);
    return out;
  }

  /// Bucket key g(v) of the k functions [function_offset,
  /// function_offset + k): the HashCombine fold of their values, hashed
  /// through `scratch`. LshTable and DynamicLshTable both key buckets by
  /// it. For SimHash (k one-bit values) the key is collision-free; for
  /// general families a 64-bit key makes accidental key collisions
  /// negligible (< M · 2^-64).
  uint64_t BucketKey(VectorRef v, uint32_t function_offset, uint32_t k,
                     HashScratch& scratch) const;

  /// Builds a projection cache covering functions [0, num_functions)
  /// over the dimensions of `dataset`, filled across `pool`.
  /// Families whose hashing cannot be table-driven return nullptr (the
  /// default); callers treat a null cache as "hash uncached" — results are
  /// bit-identical either way.
  virtual std::unique_ptr<GaussianProjectionCache> MakeProjectionCache(
      DatasetView dataset, uint32_t num_functions, ThreadPool& pool) const;

  /// p(s): single-function collision probability at similarity `s`.
  virtual double CollisionProbability(double similarity) const = 0;

  /// The similarity measure this family is locality-sensitive for.
  virtual SimilarityMeasure measure() const = 0;

  /// Short human-readable name ("simhash", "minhash").
  virtual const char* name() const = 0;

  /// P(g(u) = g(v)) for g = (h_1, ..., h_k): p(s)^k.
  double BandCollisionProbability(double similarity, uint32_t k) const;

 protected:
  /// The one hashing entry point implementations provide; both public
  /// overloads funnel here.
  virtual void DoHashRange(VectorRef v, uint32_t function_offset, uint32_t k,
                           uint64_t* out, HashScratch& scratch) const = 0;
};

/// The canonical family for `measure`: SimHash for cosine, MinHash for
/// Jaccard (the pairing both service engines use).
std::unique_ptr<LshFamily> MakeLshFamily(SimilarityMeasure measure,
                                         uint64_t seed);

}  // namespace vsj

#endif  // VSJ_LSH_LSH_FAMILY_H_
