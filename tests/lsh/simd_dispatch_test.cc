// The dispatch bit-identity suite: every SIMD width of the hashing kernels
// must be indistinguishable from scalar — same kernel outputs, same bucket
// keys, same index structure, same estimates, same snapshots. This is the
// contract that makes runtime dispatch (util/cpu.h) a pure throughput
// knob, and it is what the golden CLI fixtures rely on across machines
// with different vector units. CI runs this suite twice: once with default
// dispatch and once under VSJ_FORCE_SCALAR=1.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/lsh/gaussian_projection_cache.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/lsh/minhash.h"
#include "vsj/lsh/simhash.h"
#include "vsj/lsh/simhash_kernel.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/cpu.h"
#include "vsj/util/hash.h"
#include "vsj/util/rng.h"
#include "vsj/util/thread_pool.h"

namespace vsj {
namespace {

constexpr uint64_t kSeed = 0x51adbeefULL;

/// The levels the host can actually run (always includes kScalar).
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel detected = DetectSimdLevel();
  if (detected >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// Runs `body` under every supported level and returns one result per
/// level, resetting the dispatch override afterwards.
template <typename Body>
auto RunAtEveryLevel(Body&& body)
    -> std::vector<decltype(body())> {
  std::vector<decltype(body())> results;
  for (const SimdLevel level : SupportedLevels()) {
    EXPECT_EQ(SetSimdLevel(level), level)
        << "host cannot force " << SimdLevelName(level);
    results.push_back(body());
  }
  ResetSimdLevel();
  return results;
}

TEST(SimdDispatchTest, ProjectKernelMatchesScalarBitwise) {
  Rng rng(kSeed);
  // Widths below, at and past one 32-lane register block, with tails.
  for (const uint32_t k :
       {1u, 2u, 3u, 4u, 5u, 7u, 8u, 10u, 13u, 20u, 31u, 32u, 37u, 70u}) {
    // 23 features; rows overlap inside one arena, as cached rows do.
    constexpr size_t kFeatures = 23;
    std::vector<double> arena(kFeatures + k);
    for (double& g : arena) g = GaussianFromHash(rng.Next(), kSeed);
    std::vector<const double*> rows(kFeatures);
    std::vector<float> weights(kFeatures);
    for (size_t i = 0; i < kFeatures; ++i) {
      rows[i] = arena.data() + rng.Next() % (kFeatures + 1);
      weights[i] = static_cast<float>(rng.NextDouble() * 3.0 - 1.5);
    }
    const auto accs = RunAtEveryLevel([&] {
      std::vector<double> acc(k, 0.25);
      ProjectRows(rows.data(), weights.data(), kFeatures, acc.data(), k);
      return acc;
    });
    // The scalar reference: one multiply and one add per term, in order.
    std::vector<double> expected(k, 0.0);
    for (size_t i = 0; i < kFeatures; ++i) {
      for (uint32_t j = 0; j < k; ++j) {
        const double term = static_cast<double>(weights[i]) * rows[i][j];
        expected[j] = expected[j] + term;
      }
    }
    for (size_t l = 0; l < accs.size(); ++l) {
      ASSERT_EQ(accs[l], expected) << "k=" << k << " level " << l;
    }
  }
}

TEST(SimdDispatchTest, MinFoldKernelMatchesScalarBitwise) {
  Rng rng(kSeed ^ 1);
  for (const uint32_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 10u, 13u, 31u}) {
    std::vector<uint64_t> terms(k);
    for (uint64_t& t : terms) t = rng.Next();
    std::vector<uint64_t> keys(17);
    for (uint64_t& key : keys) key = rng.Next();
    const auto mins = RunAtEveryLevel([&] {
      std::vector<uint64_t> fold(k, ~uint64_t{0});
      for (const uint64_t key : keys) {
        MinFoldLanes(key, terms.data(), fold.data(), k);
      }
      return fold;
    });
    for (size_t l = 1; l < mins.size(); ++l) {
      ASSERT_EQ(mins[l], mins[0]) << "k=" << k << " level " << l;
    }
  }
}

TEST(SimdDispatchTest, MinFoldTermAlgebraMatchesHashCombine) {
  // The lane fold computes Mix64(Mix64(key) + seed·γ + 1); this must be
  // exactly HashCombine(key, seed), or MinHash's kernel path silently
  // diverges from the family's definition if HashCombine ever changes.
  Rng rng(kSeed ^ 9);
  for (const SimdLevel level : SupportedLevels()) {
    SetSimdLevel(level);
    for (int i = 0; i < 500; ++i) {
      const uint64_t key = rng.Next();
      const uint64_t seed = rng.Next();
      const uint64_t term = seed * kHashCombineGamma + 1;
      uint64_t fold = ~uint64_t{0};
      MinFoldLanes(Mix64(key), &term, &fold, 1);
      ASSERT_EQ(fold, HashCombine(key, seed));
    }
  }
  ResetSimdLevel();
}

TEST(SimdDispatchTest, BucketKeysIdenticalAcrossLevelsAndFamilies) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(240, 11);
  const DatasetView view(dataset);
  const SimHashFamily simhash(kSeed);
  const MinHashFamily minhash(kSeed ^ 2);
  for (const LshFamily* family :
       std::vector<const LshFamily*>{&simhash, &minhash}) {
    const auto keys = RunAtEveryLevel([&] {
      std::vector<uint64_t> out(view.size());
      LshTable::ComputeBucketKeys(*family, view, 9, 3, 0,
                                  static_cast<VectorId>(view.size()),
                                  out.data());
      return out;
    });
    for (size_t l = 1; l < keys.size(); ++l) {
      ASSERT_EQ(keys[l], keys[0]) << family->name() << " level " << l;
    }
  }
}

TEST(SimdDispatchTest, ProjectionCacheDoesNotChangeBucketKeys) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(240, 13);
  const DatasetView view(dataset);
  const SimHashFamily family(kSeed ^ 3);
  constexpr uint32_t kK = 8;
  constexpr uint32_t kTables = 3;

  ThreadPool pool(3);
  const auto cache = family.MakeProjectionCache(view, kK * kTables, pool);
  ASSERT_NE(cache, nullptr);
  std::set<DimId> distinct;
  for (VectorRef v : view) distinct.insert(v.dims(), v.dims() + v.size());
  ASSERT_EQ(cache->num_dims(), distinct.size());

  for (const SimdLevel level : SupportedLevels()) {
    SetSimdLevel(level);
    for (uint32_t t = 0; t < kTables; ++t) {
      std::vector<uint64_t> uncached(view.size());
      std::vector<uint64_t> cached(view.size());
      HashScratch plain;
      LshTable::ComputeBucketKeys(family, view, kK, t * kK, 0,
                                  static_cast<VectorId>(view.size()),
                                  uncached.data(), plain);
      HashScratch with_cache;
      with_cache.gaussian_cache = cache.get();
      LshTable::ComputeBucketKeys(family, view, kK, t * kK, 0,
                                  static_cast<VectorId>(view.size()),
                                  cached.data(), with_cache);
      ASSERT_EQ(cached, uncached)
          << SimdLevelName(level) << " table " << t;
    }
  }
  ResetSimdLevel();
}

TEST(SimdDispatchTest, PartialProjectionCacheMatchesUncached) {
  // A cache over the first half of the vectors: the second half mixes
  // cached rows with rows derived on the fly (a streaming store's appended
  // vectors do), and must still hash exactly as with no cache.
  const VectorDataset dataset = testing::SmallClusteredCorpus(240, 19);
  const DatasetView view(dataset);
  VectorDataset first_half;
  for (VectorId id = 0; id < view.size() / 2; ++id) first_half.Add(view[id]);
  const SimHashFamily family(kSeed ^ 7);
  constexpr uint32_t kK = 20;
  ThreadPool pool(2);
  const auto cache =
      family.MakeProjectionCache(DatasetView(first_half), kK, pool);
  ASSERT_NE(cache, nullptr);

  const auto keys = RunAtEveryLevel([&] {
    std::vector<uint64_t> cached(view.size());
    HashScratch with_cache;
    with_cache.gaussian_cache = cache.get();
    LshTable::ComputeBucketKeys(family, view, kK, 0, 0,
                                static_cast<VectorId>(view.size()),
                                cached.data(), with_cache);
    return cached;
  });
  std::vector<uint64_t> uncached(view.size());
  HashScratch plain;
  SetSimdLevel(SimdLevel::kScalar);
  LshTable::ComputeBucketKeys(family, view, kK, 0, 0,
                              static_cast<VectorId>(view.size()),
                              uncached.data(), plain);
  ResetSimdLevel();
  for (size_t l = 0; l < keys.size(); ++l) {
    ASSERT_EQ(keys[l], uncached) << "level " << l;
  }
}

TEST(SimdDispatchTest, ProjectionCacheRowsHoldExactGaussians) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(120, 17);
  const SimHashFamily family(kSeed ^ 4);
  constexpr uint32_t kFns = 12;
  ThreadPool pool(3);
  const auto cache =
      family.MakeProjectionCache(DatasetView(dataset), kFns, pool);
  ASSERT_NE(cache, nullptr);
  const uint64_t mixed_seed = Mix64(kSeed ^ 4);
  size_t rows_checked = 0;
  for (VectorRef v : DatasetView(dataset)) {
    for (const Feature f : v) {
      const double* row = cache->Row(f.dim);
      ASSERT_NE(row, nullptr) << "dim " << f.dim;
      for (uint32_t fn = 0; fn < kFns; ++fn) {
        ASSERT_EQ(row[fn],
                  GaussianFromHash(f.dim, HashCombine(mixed_seed, fn)));
      }
      ++rows_checked;
    }
  }
  ASSERT_GT(rows_checked, 0u);
  // A dimension no vector carries must miss.
  EXPECT_EQ(cache->Row(0x7fffffff), nullptr);
}

TEST(SimdDispatchTest, AllRegistryEstimatorsBitIdenticalAcrossLevels) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(300, 7);
  const SimHashFamily family(kSeed ^ 5);
  for (const std::string& name : AllEstimatorNames()) {
    const auto results = RunAtEveryLevel([&] {
      // Index built under the forced level; estimation itself never
      // dispatches, so divergence here means the build diverged.
      const LshIndex index(family, dataset, 8, 2);
      EstimatorContext context;
      context.dataset = DatasetView(dataset);
      context.index = &index;
      context.measure = SimilarityMeasure::kCosine;
      const auto estimator = CreateEstimator(name, context);
      std::vector<double> estimates;
      for (const double tau : {0.3, 0.6, 0.9}) {
        Rng rng(kSeed ^ static_cast<uint64_t>(tau * 1024));
        estimates.push_back(estimator->Estimate(tau, rng).estimate);
      }
      return estimates;
    });
    for (size_t l = 1; l < results.size(); ++l) {
      ASSERT_EQ(results[l], results[0]) << name << " level " << l;
    }
  }
}

/// Streaming path: churn a service under each level, checkpoint it, and
/// require byte-identical snapshot files — the strongest "nothing about
/// the index differs" statement the persistence layer can make.
TEST(SimdDispatchTest, StreamingSnapshotsByteIdenticalAcrossLevels) {
  const auto snapshot_bytes = [&](SimdLevel level, const std::string& path) {
    SetSimdLevel(level);
    StreamingEstimationServiceOptions options;
    options.k = 6;
    options.num_tables = 2;
    options.family_seed = kSeed ^ 6;
    StreamingEstimationService service(
        testing::SmallClusteredCorpus(200, 23), options);
    for (VectorId id = 0; id < 160; ++id) service.Insert(id);
    for (VectorId id = 0; id < 40; ++id) service.Remove(id * 3);
    EXPECT_EQ(service.Checkpoint(path).ok(), true);
    ResetSimdLevel();
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string dir = ::testing::TempDir();
  const std::string reference =
      snapshot_bytes(SimdLevel::kScalar, dir + "/dispatch_scalar.vsjs");
  ASSERT_FALSE(reference.empty());
  for (const SimdLevel level : SupportedLevels()) {
    if (level == SimdLevel::kScalar) continue;
    const std::string path = dir + "/dispatch_" +
                             std::string(SimdLevelName(level)) + ".vsjs";
    ASSERT_EQ(snapshot_bytes(level, path), reference)
        << SimdLevelName(level);
    std::remove(path.c_str());
  }
  std::remove((dir + "/dispatch_scalar.vsjs").c_str());
}

TEST(SimdDispatchTest, EnvOverridesAreHonored) {
  // The test can only assert the in-process override layer; the env layer
  // is exercised by the CI leg that reruns this binary under
  // VSJ_FORCE_SCALAR=1 (ActiveSimdLevel must then report scalar).
  const char* forced = std::getenv("VSJ_FORCE_SCALAR");
  if (forced != nullptr && forced[0] == '1') {
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  EXPECT_EQ(SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ResetSimdLevel();
}

}  // namespace
}  // namespace vsj
