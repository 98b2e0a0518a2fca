#include "vsj/lsh/lsh_index.h"

#include <algorithm>
#include <utility>

#include "vsj/lsh/gaussian_projection_cache.h"
#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

LshIndex::LshIndex(const LshFamily& family, DatasetView dataset,
                   uint32_t k, uint32_t num_tables, ThreadPool* pool)
    : family_(&family), dataset_(dataset), k_(k) {
  VSJ_CHECK(num_tables > 0);
  VSJ_CHECK(uint64_t{k} * num_tables <= UINT32_MAX);  // k · ℓ fits below
  VSJ_COUNTER_ADD("lsh.build.tables", num_tables);

  // Without a caller pool the same chunked loops run inline.
  ThreadPool inline_pool(1);
  ThreadPool& workers = pool != nullptr ? *pool : inline_pool;

  // The Gaussian projection cache memoizes every (dim, function) hyperplane
  // component the build will need — the fill pass is O(distinct dims · ℓ·k)
  // where the uncached build derives O(n · features · ℓ·k) of them. Its
  // dims are registered and its rows filled across the pool, then it is
  // shared read-only by every hashing worker; families without a
  // table-driven form return nullptr and hash uncached. Build results are
  // bit-identical with and without the cache.
  VSJ_TRACE_SPAN(projcache_span, "lsh.build.projcache_fill_ns");
  const std::unique_ptr<GaussianProjectionCache> cache =
      family.MakeProjectionCache(dataset, k * num_tables, workers);
  projcache_span.End();

  const auto n = static_cast<VectorId>(dataset.size());

  // Phase 1: hash every (table, vector) pair across the pool. The ℓ·n key
  // computations are independent; chunk them in units of vectors so one
  // parallel-for item is a contiguous slice of one table's key array. Each
  // chunk owns a scratch; the immutable cache is shared by all of them.
  std::vector<std::vector<uint64_t>> keys(num_tables);
  for (auto& table_keys : keys) table_keys.resize(n);

  VSJ_TRACE_SPAN(hash_span, "lsh.build.hash_ns");
  constexpr VectorId kChunk = 2048;
  const size_t chunks_per_table =
      n == 0 ? 0 : (n + kChunk - 1) / kChunk;
  workers.ParallelFor(chunks_per_table * num_tables, [&](size_t item) {
    const auto t = static_cast<uint32_t>(item / chunks_per_table);
    const auto begin = static_cast<VectorId>((item % chunks_per_table) * kChunk);
    const VectorId end = std::min<VectorId>(n, begin + kChunk);
    HashScratch scratch;
    scratch.gaussian_cache = cache.get();
    LshTable::ComputeBucketKeys(family, dataset, k, t * k, begin, end,
                                keys[t].data() + begin, scratch);
  });

  hash_span.End();

  // Phase 2: group into buckets — sequential per table, tables in parallel.
  VSJ_TRACE_SPAN(group_span, "lsh.build.group_ns");
  tables_.resize(num_tables);
  workers.ParallelFor(num_tables, [&](size_t t) {
    tables_[t] = std::make_unique<LshTable>(dataset, k, keys[t]);
  });
}

bool LshIndex::SameBucketInAnyTable(VectorId u, VectorId v) const {
  for (const auto& table : tables_) {
    if (table->SameBucket(u, v)) return true;
  }
  return false;
}

size_t LshIndex::MemoryBytes() const {
  size_t total = 0;
  for (const auto& table : tables_) total += table->MemoryBytes();
  return total;
}

}  // namespace vsj
