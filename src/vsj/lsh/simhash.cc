#include "vsj/lsh/simhash.h"

#include <algorithm>
#include <cmath>
#include <utility>
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
  // A cache is usable only if it was built by this family (tag = mixed
  // seed) and covers the requested function range; rows hold exactly the
  // GaussianFromHash values, so cached and uncached hashes are bit-equal.
  const GaussianProjectionCache* cache = scratch.gaussian_cache;
  if (cache != nullptr &&
      (cache->family_tag() != seed_ ||
       static_cast<uint64_t>(function_offset) + k > cache->num_functions())) {
    cache = nullptr;
  }

  // Point every feature at its k Gaussians: the cached row where there is
  // one, else a row derived into the scratch. Then one kernel call folds
  // the whole vector — lane j owns function (function_offset + j), so the
  // accumulation order per function is the scalar order at every width.
  const size_t size = v.size();
  const DimId* dims = v.dims();
  scratch.rows.resize(size);
  const double** rows = scratch.rows.data();
  size_t misses = 0;
  for (size_t i = 0; i < size; ++i) {
    const double* row = cache != nullptr ? cache->Row(dims[i]) : nullptr;
    rows[i] = row != nullptr ? row + function_offset : nullptr;
    misses += row == nullptr;
  }
  if (misses > 0) {
    scratch.lane_seeds.resize(k);
    uint64_t* fn_seeds = scratch.lane_seeds.data();
    for (uint32_t j = 0; j < k; ++j) {
      fn_seeds[j] = HashCombine(seed_, function_offset + j);
    }
    scratch.derived_rows.resize(misses * k);
    double* derived = scratch.derived_rows.data();
    for (size_t i = 0; i < size; ++i) {
      if (rows[i] != nullptr) continue;
      for (uint32_t j = 0; j < k; ++j) {
        derived[j] = GaussianFromHash(dims[i], fn_seeds[j]);
      }
      rows[i] = derived;
      derived += k;
    }
  }
  // Hit accounting is flushed in bulk — the per-feature path carries no
  // atomics.
  VSJ_COUNTER_ADD("lsh.projcache.lookups", size);
  if (misses > 0) VSJ_COUNTER_ADD("lsh.projcache.misses", misses);

  scratch.projections.resize(k);
  double* projections = scratch.projections.data();
  ProjectRows(rows, v.weights(), size, projections, k);
  for (uint32_t j = 0; j < k; ++j) out[j] = projections[j] >= 0.0 ? 1 : 0;
}

std::unique_ptr<GaussianProjectionCache> SimHashFamily::MakeProjectionCache(
    DatasetView dataset, uint32_t num_functions, ThreadPool& pool) const {
  std::vector<uint64_t> fn_seeds(num_functions);
  for (uint32_t f = 0; f < num_functions; ++f) {
    fn_seeds[f] = HashCombine(seed_, f);
  }
  return std::make_unique<GaussianProjectionCache>(seed_, std::move(fn_seeds),
                                                   dataset, pool);
}

double SimHashFamily::CollisionProbability(double similarity) const {
  const double s = std::clamp(similarity, -1.0, 1.0);
  return 1.0 - std::acos(s) / M_PI;
}

}  // namespace vsj
