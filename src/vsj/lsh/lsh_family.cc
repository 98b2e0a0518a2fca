#include "vsj/lsh/lsh_family.h"

#include <cmath>

#include "vsj/lsh/gaussian_projection_cache.h"
#include "vsj/lsh/minhash.h"
#include "vsj/lsh/simhash.h"
#include "vsj/util/check.h"
#include "vsj/util/hash.h"

namespace vsj {

double LshFamily::BandCollisionProbability(double similarity,
                                           uint32_t k) const {
  return std::pow(CollisionProbability(similarity), static_cast<double>(k));
}

uint64_t LshFamily::BucketKey(VectorRef v, uint32_t function_offset,
                              uint32_t k, HashScratch& scratch) const {
  scratch.signature.resize(k);
  uint64_t* signature = scratch.signature.data();
  HashRange(v, function_offset, k, signature, scratch);
  uint64_t key = 0x2545f4914f6cdd1dULL;
  for (uint32_t j = 0; j < k; ++j) key = HashCombine(key, signature[j]);
  return key;
}

std::unique_ptr<GaussianProjectionCache> LshFamily::MakeProjectionCache(
    DatasetView /*dataset*/, uint32_t /*num_functions*/,
    ThreadPool& /*pool*/) const {
  return nullptr;
}

std::unique_ptr<LshFamily> MakeLshFamily(SimilarityMeasure measure,
                                         uint64_t seed) {
  switch (measure) {
    case SimilarityMeasure::kCosine:
      return std::make_unique<SimHashFamily>(seed);
    case SimilarityMeasure::kJaccard:
      return std::make_unique<MinHashFamily>(seed);
  }
  VSJ_CHECK_MSG(false, "unknown similarity measure");
  return nullptr;
}

}  // namespace vsj
