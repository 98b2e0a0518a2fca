#include "vsj/lsh/dynamic_lsh_table.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace vsj {
namespace {

/// Builds both a static and a dynamic table over the same data and checks
/// the estimator-facing invariants agree. `dynamic` must have been fed ids
/// 0..n−1 in order: then both tables number buckets by first sighting, so
/// every id's static bucket index equals its dynamic slot.
void ExpectMatchesStatic(const VectorDataset& dataset,
                         const LshFamily& family, uint32_t k,
                         const DynamicLshTable& dynamic) {
  const LshTable expected(family, dataset, k);
  EXPECT_EQ(dynamic.NumSameBucketPairs(), expected.NumSameBucketPairs());
  EXPECT_EQ(dynamic.num_buckets(), expected.num_buckets());
  for (VectorId u = 0; u < dataset.size(); ++u) {
    for (VectorId v = u + 1; v < dataset.size(); ++v) {
      EXPECT_EQ(dynamic.SameBucket(u, v), expected.SameBucket(u, v));
    }
  }
  std::vector<uint32_t> slots(dataset.size(), UINT32_MAX);
  dynamic.ExportBucketOf(slots);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    EXPECT_EQ(slots[id], expected.BucketOf(id)) << "id " << id;
  }
}

TEST(DynamicLshTableTest, InsertAllMatchesStaticBuild) {
  VectorDataset dataset = testing::SmallClusteredCorpus(200, 1);
  SimHashFamily family(2);
  DynamicLshTable dynamic(family, 8);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    dynamic.Insert(id, dataset[id]);
  }
  EXPECT_EQ(dynamic.num_vectors(), dataset.size());
  ExpectMatchesStatic(dataset, family, 8, dynamic);
}

TEST(DynamicLshTableTest, RemoveUndoesInsert) {
  VectorDataset dataset = testing::SmallClusteredCorpus(150, 3);
  SimHashFamily family(4);
  DynamicLshTable dynamic(family, 8);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    dynamic.Insert(id, dataset[id]);
  }
  // Remove the second half; invariants must match a static table over the
  // first half.
  VectorDataset half;
  for (VectorId id = 0; id < dataset.size(); ++id) {
    if (id < dataset.size() / 2) {
      half.Add(dataset[id]);
    } else {
      dynamic.Remove(id);
    }
  }
  EXPECT_EQ(dynamic.num_vectors(), half.size());
  const LshTable expected(family, half, 8);
  EXPECT_EQ(dynamic.NumSameBucketPairs(), expected.NumSameBucketPairs());
  for (VectorId u = 0; u < half.size(); ++u) {
    for (VectorId v = u + 1; v < half.size(); ++v) {
      EXPECT_EQ(dynamic.SameBucket(u, v), expected.SameBucket(u, v));
    }
  }
}

TEST(DynamicLshTableTest, RandomChurnKeepsInvariants) {
  VectorDataset dataset = testing::SmallClusteredCorpus(120, 5);
  SimHashFamily family(6);
  DynamicLshTable dynamic(family, 6);
  Rng rng(7);
  std::vector<bool> present(dataset.size(), false);
  for (int op = 0; op < 2000; ++op) {
    const auto id = static_cast<VectorId>(rng.Below(dataset.size()));
    if (present[id]) {
      dynamic.Remove(id);
    } else {
      dynamic.Insert(id, dataset[id]);
    }
    present[id] = !present[id];
  }
  // Rebuild the surviving subset statically and compare.
  uint64_t expected_pairs = 0;
  {
    std::map<VectorId, VectorId> dense;  // original -> compact id
    VectorDataset survivors;
    for (VectorId id = 0; id < dataset.size(); ++id) {
      if (present[id]) {
        dense[id] = survivors.Add(dataset[id]);
      }
    }
    const LshTable expected(family, survivors, 6);
    expected_pairs = expected.NumSameBucketPairs();
    for (const auto& [a, ca] : dense) {
      for (const auto& [b, cb] : dense) {
        if (a >= b) continue;
        EXPECT_EQ(dynamic.SameBucket(a, b), expected.SameBucket(ca, cb));
      }
    }
  }
  EXPECT_EQ(dynamic.NumSameBucketPairs(), expected_pairs);
}

TEST(DynamicLshTableTest, ThousandsOfChurnCyclesMatchFreshRebuild) {
  // Satellite stress: after thousands of randomized insert/remove cycles
  // the incrementally maintained quantities (N_H, Fenwick pair weights,
  // bucket counts) must equal those of a table rebuilt from scratch over
  // the survivors.
  VectorDataset dataset = testing::SmallClusteredCorpus(250, 21);
  SimHashFamily family(22);
  DynamicLshTable churned(family, 8);
  Rng rng(23);
  std::vector<bool> present(dataset.size(), false);
  for (int op = 0; op < 6000; ++op) {
    const auto id = static_cast<VectorId>(rng.Below(dataset.size()));
    if (present[id]) {
      churned.Remove(id);
    } else {
      churned.Insert(id, dataset[id]);
    }
    present[id] = !present[id];
    // The Fenwick total Σ C(b_j, 2) must track N_H exactly at every step.
    ASSERT_DOUBLE_EQ(churned.PairWeightTotal(),
                     static_cast<double>(churned.NumSameBucketPairs()));
  }

  DynamicLshTable fresh(family, 8);
  size_t survivors = 0;
  for (VectorId id = 0; id < dataset.size(); ++id) {
    if (present[id]) {
      fresh.Insert(id, dataset[id]);
      ++survivors;
    }
  }
  EXPECT_EQ(churned.num_vectors(), survivors);
  EXPECT_EQ(churned.NumSameBucketPairs(), fresh.NumSameBucketPairs());
  EXPECT_EQ(churned.NumCrossBucketPairs(), fresh.NumCrossBucketPairs());
  EXPECT_EQ(churned.num_buckets(), fresh.num_buckets());
  EXPECT_DOUBLE_EQ(churned.PairWeightTotal(), fresh.PairWeightTotal());
  for (VectorId u = 0; u < dataset.size(); ++u) {
    for (VectorId v = u + 1; v < dataset.size(); ++v) {
      ASSERT_EQ(churned.SameBucket(u, v), fresh.SameBucket(u, v))
          << u << "," << v;
    }
  }
}

TEST(DynamicLshTableTest, ArenaSurvivesRelocationsAndCompaction) {
  // The bucket arena grows buckets by relocation (doubling slack) and
  // compacts once relocation garbage exceeds the live footprint. k = 1
  // SimHash yields two giant buckets, so heavy churn forces many
  // relocations and several compactions; every estimator-facing quantity
  // must keep matching a fresh rebuild of the survivors throughout.
  VectorDataset dataset = testing::SmallClusteredCorpus(2000, 31);
  SimHashFamily family(32);
  DynamicLshTable churned(family, 1);
  Rng rng(33);
  std::vector<bool> present(dataset.size(), false);
  for (int op = 0; op < 30000; ++op) {
    const auto id = static_cast<VectorId>(rng.Below(dataset.size()));
    if (present[id]) {
      churned.Remove(id);
    } else {
      churned.Insert(id, dataset[id]);
    }
    present[id] = !present[id];
    ASSERT_DOUBLE_EQ(churned.PairWeightTotal(),
                     static_cast<double>(churned.NumSameBucketPairs()));
  }

  DynamicLshTable fresh(family, 1);
  std::vector<VectorId> live;
  for (VectorId id = 0; id < dataset.size(); ++id) {
    if (present[id]) {
      fresh.Insert(id, dataset[id]);
      live.push_back(id);
    }
  }
  EXPECT_EQ(churned.num_vectors(), live.size());
  EXPECT_EQ(churned.NumSameBucketPairs(), fresh.NumSameBucketPairs());
  EXPECT_EQ(churned.num_buckets(), fresh.num_buckets());

  // ReplayOrder must be exactly the live set, grouped by bucket: replaying
  // it into an empty table reproduces the sampling state (the snapshot
  // contract), which implies the arena's slices are intact.
  const std::vector<VectorId> order = churned.ReplayOrder();
  ASSERT_EQ(order.size(), live.size());
  std::vector<VectorId> sorted_order = order;
  std::sort(sorted_order.begin(), sorted_order.end());
  EXPECT_EQ(sorted_order, live);
  DynamicLshTable replayed(family, 1);
  for (const VectorId id : order) replayed.Insert(id, dataset[id]);
  EXPECT_EQ(replayed.NumSameBucketPairs(), churned.NumSameBucketPairs());
  Rng draw_churned(55);
  Rng draw_replayed(55);
  for (int draw = 0; draw < 2000; ++draw) {
    const VectorPair a = churned.SampleSameBucketPair(draw_churned);
    const VectorPair b = replayed.SampleSameBucketPair(draw_replayed);
    ASSERT_EQ(a.first, b.first);
    ASSERT_EQ(a.second, b.second);
    ASSERT_NE(a.first, a.second);
    ASSERT_TRUE(churned.SameBucket(a.first, a.second));
  }

  // Mass expiry: shrink the live set to a sliver of the arena's reserved
  // capacity, which must trip the trimming compaction (the live members
  // drop far below the historical bucket capacities). Then regrow through
  // the trimmed capacities. Quantities must match fresh rebuilds at both
  // extremes; ASan guards the relocations.
  std::vector<VectorId> expired;
  for (const VectorId id : live) {
    if (expired.size() + 50 < live.size()) {
      churned.Remove(id);
      expired.push_back(id);
    }
  }
  DynamicLshTable sliver(family, 1);
  for (const VectorId id : live) {
    if (churned.Contains(id)) sliver.Insert(id, dataset[id]);
  }
  EXPECT_EQ(churned.num_vectors(), 50u);
  EXPECT_EQ(churned.NumSameBucketPairs(), sliver.NumSameBucketPairs());
  for (const VectorId id : expired) churned.Insert(id, dataset[id]);
  EXPECT_EQ(churned.num_vectors(), live.size());
  EXPECT_EQ(churned.NumSameBucketPairs(), fresh.NumSameBucketPairs());
  ASSERT_DOUBLE_EQ(churned.PairWeightTotal(),
                   static_cast<double>(churned.NumSameBucketPairs()));
}

TEST(DynamicLshTableTest, SamplingIsUniformOverSameBucketPairs) {
  // Two duplicate groups: sizes 3 and 2 → same-bucket pairs 3 + 1 = 4.
  VectorDataset dataset;
  for (int i = 0; i < 3; ++i) dataset.Add(SparseVector::FromDims({1, 2, 3}));
  for (int i = 0; i < 2; ++i) {
    dataset.Add(SparseVector::FromDims({50, 60, 70}));
  }
  MinHashFamily family(8);
  DynamicLshTable dynamic(family, 16);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    dynamic.Insert(id, dataset[id]);
  }
  ASSERT_EQ(dynamic.NumSameBucketPairs(), 4u);
  Rng rng(9);
  std::map<std::pair<VectorId, VectorId>, int> counts;
  const int draws = 40000;
  for (int d = 0; d < draws; ++d) {
    const VectorPair pair = dynamic.SampleSameBucketPair(rng);
    EXPECT_TRUE(dynamic.SameBucket(pair.first, pair.second));
    auto key = std::minmax(pair.first, pair.second);
    ++counts[{key.first, key.second}];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [pair, count] : counts) {
    EXPECT_NEAR(count / static_cast<double>(draws), 0.25, 0.02);
  }
}

TEST(DynamicLshTableTest, SamplingAdaptsAfterRemovals) {
  VectorDataset dataset;
  for (int i = 0; i < 3; ++i) dataset.Add(SparseVector::FromDims({1, 2, 3}));
  for (int i = 0; i < 2; ++i) {
    dataset.Add(SparseVector::FromDims({50, 60, 70}));
  }
  MinHashFamily family(10);
  DynamicLshTable dynamic(family, 16);
  for (VectorId id = 0; id < dataset.size(); ++id) {
    dynamic.Insert(id, dataset[id]);
  }
  // Remove one member of the triple: both groups become pairs.
  dynamic.Remove(0);
  EXPECT_EQ(dynamic.NumSameBucketPairs(), 2u);
  Rng rng(11);
  int group_a = 0;
  const int draws = 20000;
  for (int d = 0; d < draws; ++d) {
    const VectorPair pair = dynamic.SampleSameBucketPair(rng);
    if (pair.first == 1 || pair.first == 2) ++group_a;
  }
  EXPECT_NEAR(group_a / static_cast<double>(draws), 0.5, 0.02);
}

TEST(DynamicLshTableDeathTest, DoubleInsertAborts) {
  SimHashFamily family(12);
  DynamicLshTable dynamic(family, 4);
  dynamic.Insert(1, SparseVector::FromDims({1}));
  EXPECT_DEATH(dynamic.Insert(1, SparseVector::FromDims({2})),
               "already present");
}

TEST(DynamicLshTableDeathTest, RemoveMissingAborts) {
  SimHashFamily family(13);
  DynamicLshTable dynamic(family, 4);
  EXPECT_DEATH(dynamic.Remove(5), "not present");
}

}  // namespace
}  // namespace vsj
