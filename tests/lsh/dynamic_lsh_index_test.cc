#include "vsj/lsh/dynamic_lsh_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "index_invariants.h"
#include "test_util.h"

namespace vsj {
namespace {

TEST(DynamicLshIndexTest, TablesUseDistinctFunctionRanges) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 11);
  SimHashFamily family(12);
  DynamicLshIndex index(family, 8, 3);
  ASSERT_EQ(index.num_tables(), 3u);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    index.Insert(id, dataset[id]);
  }

  // Each table must reproduce the partition of the corresponding static
  // index table (same family, k, function ranges [t·k, (t+1)·k)).
  const LshIndex expected(family, dataset, 8, 3);
  for (uint32_t t = 0; t < 3; ++t) {
    const DynamicLshTable& dynamic = index.table(t);
    const LshTable& fixed = expected.table(t);
    EXPECT_EQ(dynamic.NumSameBucketPairs(), fixed.NumSameBucketPairs()) << t;
    EXPECT_EQ(dynamic.num_buckets(), fixed.num_buckets()) << t;
  }
  // Different function ranges almost surely produce different partitions.
  EXPECT_NE(index.table(0).NumSameBucketPairs() +
                index.table(1).NumSameBucketPairs() +
                index.table(2).NumSameBucketPairs(),
            3 * index.table(0).NumSameBucketPairs());
}

TEST(DynamicLshIndexTest, InsertRemoveKeepsEveryTableAndLiveListInSync) {
  VectorDataset dataset = testing::SmallClusteredCorpus(150, 13);
  SimHashFamily family(14);
  DynamicLshIndex index(family, 6, 2);
  Rng rng(15);
  std::vector<bool> present(dataset.size(), false);
  size_t live = 0;
  for (int op = 0; op < 2000; ++op) {
    const auto id = static_cast<VectorId>(rng.Below(dataset.size()));
    if (present[id]) {
      index.Remove(id);
      --live;
    } else {
      index.Insert(id, dataset[id]);
      ++live;
    }
    present[id] = !present[id];
    ASSERT_EQ(index.num_vectors(), live);
    for (uint32_t t = 0; t < index.num_tables(); ++t) {
      ASSERT_EQ(index.table(t).num_vectors(), live);
    }
    ASSERT_TRUE(testing::IndexInvariantsHold(index, dataset.size()))
        << "after op " << op;
  }
  // The live list holds exactly the present ids, each once.
  std::vector<VectorId> ids = index.live_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  for (VectorId id : ids) EXPECT_TRUE(present[id]);
  EXPECT_EQ(ids.size(), live);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    EXPECT_EQ(index.Contains(id), static_cast<bool>(present[id])) << id;
  }
}

TEST(DynamicLshIndexTest, SameBucketInAnyTableMatchesStaticIndex) {
  VectorDataset dataset = testing::SmallClusteredCorpus(120, 17);
  SimHashFamily family(18);
  DynamicLshIndex index(family, 6, 2);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    index.Insert(id, dataset[id]);
  }
  const LshIndex expected(family, dataset, 6, 2);
  for (VectorId u = 0; u < dataset.size(); ++u) {
    for (VectorId v = u + 1; v < dataset.size(); ++v) {
      ASSERT_EQ(index.SameBucketInAnyTable(u, v),
                expected.SameBucketInAnyTable(u, v))
          << u << "," << v;
    }
  }
  // Non-live ids never share a bucket.
  index.Remove(0);
  EXPECT_FALSE(index.SameBucketInAnyTable(0, 1));
}

TEST(DynamicLshIndexTest, SampleLiveIdCoversExactlyTheLiveSet) {
  VectorDataset dataset = testing::SmallClusteredCorpus(40, 19);
  SimHashFamily family(20);
  DynamicLshIndex index(family, 6, 1);
  for (VectorId id = 0; id < 20; ++id) index.Insert(id, dataset[id]);
  for (VectorId id = 0; id < 10; ++id) index.Remove(id);
  Rng rng(21);
  std::vector<int> hits(dataset.size(), 0);
  for (int draw = 0; draw < 5000; ++draw) {
    const VectorId id = index.SampleLiveId(rng);
    ASSERT_GE(id, 10u);
    ASSERT_LT(id, 20u);
    ++hits[id];
  }
  for (VectorId id = 10; id < 20; ++id) EXPECT_GT(hits[id], 0) << id;
}

}  // namespace
}  // namespace vsj
