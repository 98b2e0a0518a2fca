#include "vsj/lsh/simhash.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "vsj/lsh/gaussian_projection_cache.h"
#include "vsj/lsh/simhash_kernel.h"
#include "vsj/obs/obs.h"
#include "vsj/util/hash.h"

namespace vsj {

SimHashFamily::SimHashFamily(uint64_t seed) : seed_(Mix64(seed)) {}

void SimHashFamily::DoHashRange(VectorRef v, uint32_t function_offset,
                                uint32_t k, uint64_t* out,
                                HashScratch& scratch) const {
  // One pass over the features, k running projections — lane j of the
  // kernels owns function (function_offset + j), so accumulation order per
  // function is the scalar order at every SIMD width.
  scratch.projections.assign(k, 0.0);
  double* projections = scratch.projections.data();
  scratch.lane_seeds.resize(k);
  uint64_t* fn_seeds = scratch.lane_seeds.data();
  for (uint32_t j = 0; j < k; ++j) {
    fn_seeds[j] = HashCombine(seed_, function_offset + j);
  }

  // A cache is usable only if it was built by this family (tag = mixed
  // seed) and covers the requested function range; rows hold exactly the
  // GaussianFromHash values, so cached and uncached hashes are bit-equal.
  const GaussianProjectionCache* cache = scratch.gaussian_cache;
  if (cache != nullptr &&
      (cache->family_tag() != seed_ ||
       static_cast<uint64_t>(function_offset) + k > cache->num_functions())) {
    cache = nullptr;
  }

  // Cache hit accounting is local and flushed in bulk after the loop —
  // the per-feature path carries no atomics.
  uint64_t cache_misses = 0;
  for (const Feature f : v) {
    const double* row = cache != nullptr ? cache->Row(f.dim) : nullptr;
    if (row != nullptr) {
      AccumulateProjectionLanes(row + function_offset,
                                static_cast<double>(f.weight), projections,
                                k);
    } else {
      ++cache_misses;
      for (uint32_t j = 0; j < k; ++j) {
        projections[j] += f.weight * GaussianFromHash(f.dim, fn_seeds[j]);
      }
    }
  }
  VSJ_COUNTER_ADD("lsh.projcache.lookups", v.size());
  if (cache_misses > 0) VSJ_COUNTER_ADD("lsh.projcache.misses", cache_misses);
  for (uint32_t j = 0; j < k; ++j) out[j] = projections[j] >= 0.0 ? 1 : 0;
}

std::unique_ptr<GaussianProjectionCache> SimHashFamily::MakeProjectionCache(
    DatasetView dataset, uint32_t num_functions, ThreadPool& pool) const {
  std::vector<uint64_t> fn_seeds(num_functions);
  for (uint32_t f = 0; f < num_functions; ++f) {
    fn_seeds[f] = HashCombine(seed_, f);
  }
  auto cache =
      std::make_unique<GaussianProjectionCache>(seed_, std::move(fn_seeds));
  for (VectorRef v : dataset) cache->AddDims(v);
  cache->Fill(pool);
  return cache;
}

double SimHashFamily::CollisionProbability(double similarity) const {
  const double s = std::clamp(similarity, -1.0, 1.0);
  return 1.0 - std::acos(s) / M_PI;
}

}  // namespace vsj
