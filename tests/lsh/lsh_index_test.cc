#include "vsj/lsh/lsh_index.h"

#include <gtest/gtest.h>

#include "vsj/gen/workloads.h"
#include "vsj/lsh/simhash.h"
#include "vsj/util/thread_pool.h"

namespace vsj {
namespace {

TEST(LshIndexTest, BuildsRequestedNumberOfTables) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(200, 1));
  SimHashFamily family(2);
  LshIndex index(family, dataset, 8, 4);
  EXPECT_EQ(index.num_tables(), 4u);
  EXPECT_EQ(index.k(), 8u);
  for (uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(index.table(t).num_vectors(), dataset.size());
  }
}

TEST(LshIndexTest, PoolBuildMatchesInlineBuild) {
  // The projection cache registers dims and fills rows across the pool, and
  // the tables hash across it; every bucket must come out as inline.
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(1500, 9));
  SimHashFamily family(10);
  const LshIndex inline_index(family, dataset, 10, 3);
  ThreadPool pool(4);
  const LshIndex pooled(family, dataset, 10, 3, &pool);
  for (uint32_t t = 0; t < 3; ++t) {
    const LshTable& a = inline_index.table(t);
    const LshTable& b = pooled.table(t);
    ASSERT_EQ(a.num_buckets(), b.num_buckets()) << "table " << t;
    for (size_t bucket = 0; bucket < a.num_buckets(); ++bucket) {
      ASSERT_EQ(a.BucketKey(bucket), b.BucketKey(bucket)) << "table " << t;
    }
    for (VectorId id = 0; id < dataset.size(); ++id) {
      ASSERT_EQ(a.BucketOf(id), b.BucketOf(id)) << "table " << t;
    }
  }
}

TEST(LshIndexTest, TablesAreIndependent) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(300, 3));
  SimHashFamily family(4);
  LshIndex index(family, dataset, 6, 3);
  // At least one pair must be stratified differently across tables.
  bool differs = false;
  for (VectorId u = 0; u < 100 && !differs; ++u) {
    for (VectorId v = u + 1; v < 100 && !differs; ++v) {
      const bool b0 = index.table(0).SameBucket(u, v);
      const bool b1 = index.table(1).SameBucket(u, v);
      const bool b2 = index.table(2).SameBucket(u, v);
      differs = (b0 != b1) || (b1 != b2);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(LshIndexTest, SameBucketInAnyTableIsUnionOfTables) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(150, 5));
  SimHashFamily family(6);
  LshIndex index(family, dataset, 6, 3);
  for (VectorId u = 0; u < 50; ++u) {
    for (VectorId v = u + 1; v < 50; ++v) {
      bool any = false;
      for (uint32_t t = 0; t < 3; ++t) {
        any |= index.table(t).SameBucket(u, v);
      }
      EXPECT_EQ(index.SameBucketInAnyTable(u, v), any);
    }
  }
}

TEST(LshIndexTest, MemoryIsSumOfTables) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(120, 7));
  SimHashFamily family(8);
  LshIndex index(family, dataset, 5, 2);
  EXPECT_EQ(index.MemoryBytes(),
            index.table(0).MemoryBytes() + index.table(1).MemoryBytes());
}

TEST(LshIndexTest, AccessorsExposeFamilyAndDataset) {
  VectorDataset dataset = GenerateCorpus(DblpLikeConfig(80, 9));
  SimHashFamily family(10);
  LshIndex index(family, dataset, 4, 1);
  EXPECT_EQ(&index.family(), &family);
  // The index exposes the dataset through a view; same size, same payload.
  EXPECT_EQ(index.dataset().size(), dataset.size());
  EXPECT_TRUE(index.dataset()[0] == dataset[0]);
}

}  // namespace
}  // namespace vsj
