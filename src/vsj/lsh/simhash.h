// SimHash: Charikar's random-hyperplane LSH for cosine similarity.
//
//   h_r(v) = sign(r · v),  r ~ N(0, I_d)
//   P(h(u) = h(v)) = 1 − θ(u, v)/π,  θ = angle between u and v.
//
// The Gaussian entry r[d] for hash function j is derived on the fly from
// Mix64(d, seed_j); no d-dimensional projection matrices are stored, so the
// family supports 10^5+-dimensional vocabularies at zero memory cost.
//
// Hot path: when the caller's HashScratch carries a GaussianProjectionCache
// built by this family, the per-(feature, function) derivation becomes a
// contiguous row load; dims the cache lacks get rows derived into the
// scratch. One SIMD kernel call (simhash_kernel.h) then folds the whole
// vector — bit-identical to the uncached scalar loop, since the cache
// stores exactly the GaussianFromHash values and each SIMD lane owns one
// function.

#ifndef VSJ_LSH_SIMHASH_H_
#define VSJ_LSH_SIMHASH_H_

#include "vsj/lsh/lsh_family.h"

namespace vsj {

/// Random-hyperplane family (Charikar, STOC 2002). Hash values are 0/1.
class SimHashFamily final : public LshFamily {
 public:
  explicit SimHashFamily(uint64_t seed = 0);

  std::unique_ptr<GaussianProjectionCache> MakeProjectionCache(
      DatasetView dataset, uint32_t num_functions,
      ThreadPool& pool) const override;

  double CollisionProbability(double similarity) const override;
  SimilarityMeasure measure() const override {
    return SimilarityMeasure::kCosine;
  }
  const char* name() const override { return "simhash"; }

 protected:
  void DoHashRange(VectorRef v, uint32_t function_offset, uint32_t k,
                   uint64_t* out, HashScratch& scratch) const override;

 private:
  uint64_t seed_;
};

}  // namespace vsj

#endif  // VSJ_LSH_SIMHASH_H_
