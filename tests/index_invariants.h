// Consistency checker for a DynamicLshIndex, built on its public API
// alone. Churn tests call it after every mutation:
//
//   ASSERT_TRUE(testing::IndexInvariantsHold(index, id_space));
//
// For each table it checks that the table holds exactly the live ids
// (Contains answers true on live_ids() and false on every other id below
// `id_space`), that ReplayOrder() is a permutation of live_ids(), that the
// incremental N_H equals Σ C(b, 2) over the buckets ExportBucketOf reports,
// that the Fenwick total equals N_H, and that SameBucket agrees with the
// exported bucket array on a sample of live pairs.

#ifndef VSJ_TESTS_INDEX_INVARIANTS_H_
#define VSJ_TESTS_INDEX_INVARIANTS_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/lsh/dynamic_lsh_index.h"
#include "vsj/util/rng.h"

namespace vsj::testing {

/// `id_space` bounds every id the index has seen (a store's num_ids() or a
/// dataset's size()).
inline ::testing::AssertionResult IndexInvariantsHold(
    const DynamicLshIndex& index, size_t id_space) {
  const std::vector<VectorId>& live = index.live_ids();
  std::vector<bool> is_live(id_space, false);
  for (const VectorId id : live) {
    if (id >= id_space || is_live[id]) {
      return ::testing::AssertionFailure()
             << "live id " << id << " repeated or outside [0, " << id_space
             << ")";
    }
    is_live[id] = true;
  }
  for (VectorId id = 0; id < id_space; ++id) {
    if (index.Contains(id) != is_live[id]) {
      return ::testing::AssertionFailure()
             << "index Contains(" << id << ") disagrees with live_ids()";
    }
  }
  std::vector<VectorId> sorted_live = live;
  std::sort(sorted_live.begin(), sorted_live.end());

  constexpr uint32_t kAbsent = ~uint32_t{0};
  constexpr int kSampledPairs = 256;
  for (uint32_t t = 0; t < index.num_tables(); ++t) {
    const DynamicLshTable& table = index.table(t);
    if (table.num_vectors() != live.size()) {
      return ::testing::AssertionFailure()
             << "table " << t << " holds " << table.num_vectors()
             << " ids, live_ids() " << live.size();
    }
    for (VectorId id = 0; id < id_space; ++id) {
      if (table.Contains(id) != is_live[id]) {
        return ::testing::AssertionFailure()
               << "table " << t << " Contains(" << id
               << ") disagrees with live_ids()";
      }
    }
    std::vector<VectorId> replay = table.ReplayOrder();
    std::sort(replay.begin(), replay.end());
    if (replay != sorted_live) {
      return ::testing::AssertionFailure()
             << "table " << t << " ReplayOrder() is not a permutation of "
             << "live_ids()";
    }

    // The table holds exactly the live ids, all below id_space, so the
    // export writes in bounds and leaves only non-live entries absent.
    std::vector<uint32_t> bucket_of(id_space, kAbsent);
    table.ExportBucketOf(bucket_of);
    std::unordered_map<uint32_t, uint64_t> bucket_size;
    for (const VectorId id : live) {
      if (bucket_of[id] == kAbsent) {
        return ::testing::AssertionFailure()
               << "table " << t << " exports no bucket for live id " << id;
      }
      ++bucket_size[bucket_of[id]];
    }
    uint64_t same_bucket_pairs = 0;
    for (const auto& [bucket, size] : bucket_size) {
      same_bucket_pairs += size * (size - 1) / 2;
    }
    if (table.NumSameBucketPairs() != same_bucket_pairs) {
      return ::testing::AssertionFailure()
             << "table " << t << " N_H " << table.NumSameBucketPairs()
             << " != sum of C(b, 2) over exported buckets "
             << same_bucket_pairs;
    }
    if (table.PairWeightTotal() !=
        static_cast<double>(table.NumSameBucketPairs())) {
      return ::testing::AssertionFailure()
             << "table " << t << " Fenwick total " << table.PairWeightTotal()
             << " != N_H " << table.NumSameBucketPairs();
    }

    // SameBucket against the export: every live id with its bucket's first
    // live id (all true), then uniform live pairs (mostly false).
    std::unordered_map<uint32_t, VectorId> first_in_bucket;
    for (const VectorId id : live) {
      const auto [it, inserted] = first_in_bucket.emplace(bucket_of[id], id);
      if (!inserted && !table.SameBucket(id, it->second)) {
        return ::testing::AssertionFailure()
               << "table " << t << " SameBucket(" << id << ", " << it->second
               << ") is false, but both export bucket " << bucket_of[id];
      }
    }
    if (live.size() < 2) continue;
    Rng rng(0x1ab5 + t);
    for (int s = 0; s < kSampledPairs; ++s) {
      const VectorId u = live[rng.Below(live.size())];
      const VectorId v = live[rng.Below(live.size())];
      if (u != v && table.SameBucket(u, v) != (bucket_of[u] == bucket_of[v])) {
        return ::testing::AssertionFailure()
               << "table " << t << " SameBucket(" << u << ", " << v
               << ") disagrees with the exported buckets";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace vsj::testing

#endif  // VSJ_TESTS_INDEX_INVARIANTS_H_
