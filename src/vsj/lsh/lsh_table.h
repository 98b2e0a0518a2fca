// A single LSH table D_g for g = (h_1, ..., h_k), extended with bucket
// counts (paper §4.1.1).
//
// On top of the conventional bucket → {vector ids} map, the table maintains
// everything the estimators of §4–§5 need:
//   * the bucket count b_j of every bucket,
//   * N_H = Σ_j C(b_j, 2): the number of same-bucket pairs (stratum H size),
//   * O(1) same-bucket tests via a per-vector bucket index,
//   * O(1) uniform sampling of a pair from stratum H, implemented as an
//     alias-table draw of a bucket with weight C(b_j, 2) followed by a
//     uniform pair draw inside the bucket (SampleH, Algorithm 1).
//
// Storage: buckets live in one CSR-style arena (bucket_offsets_[] into
// bucket_members_[]), not per-bucket vectors — SampleH and the bucket
// scans of the multi-table estimators walk contiguous memory, and bucket
// sizes are O(1) offset differences (no per-bucket headers to chase).
// Buckets are numbered in order of first sighting over ids 0..n−1, through
// the key → bucket map — DynamicLshTable's slot rule, so a dynamic table
// fed the same ids in order agrees on every bucket index — and members
// sit in ascending id order within a bucket.

#ifndef VSJ_LSH_LSH_TABLE_H_
#define VSJ_LSH_LSH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "vsj/lsh/lsh_family.h"
#include "vsj/util/alias_table.h"
#include "vsj/util/rng.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Hash table D_g with bucket counts.
class LshTable {
 public:
  /// Hashes every vector of `dataset` with functions
  /// [function_offset, function_offset + k) of `family`, keying buckets by
  /// LshFamily::BucketKey.
  LshTable(const LshFamily& family, DatasetView dataset, uint32_t k,
           uint32_t function_offset = 0);

  /// Builds the table from precomputed bucket keys (`keys[id]` = combined
  /// key of vector id, as produced by `ComputeBucketKeys`). This is the
  /// entry point of the parallel index build: key computation — the O(n·k·
  /// features) part — parallelizes trivially, while the grouping done here
  /// stays sequential and therefore identical to the single-threaded build.
  LshTable(DatasetView dataset, uint32_t k,
           const std::vector<uint64_t>& keys);

  /// Computes the bucket key (LshFamily::BucketKey) of vectors [begin, end)
  /// into out[0 .. end-begin). Pure and thread-safe; disjoint
  /// ranges may be computed concurrently with per-caller scratches (the
  /// scratch's projection cache, if any, is shared read-only).
  static void ComputeBucketKeys(const LshFamily& family, DatasetView dataset,
                                uint32_t k, uint32_t function_offset,
                                VectorId begin, VectorId end, uint64_t* out,
                                HashScratch& scratch);

  /// Scratch-allocating overload (cold paths, tests).
  static void ComputeBucketKeys(const LshFamily& family,
                                DatasetView dataset, uint32_t k,
                                uint32_t function_offset, VectorId begin,
                                VectorId end, uint64_t* out);

  uint32_t k() const { return k_; }
  size_t num_vectors() const { return bucket_of_.size(); }

  /// Number of non-empty buckets n_g.
  size_t num_buckets() const { return bucket_keys_.size(); }

  /// Members of bucket `b`: a contiguous slice of the member arena.
  std::span<const VectorId> bucket(size_t b) const {
    return {bucket_members_.data() + bucket_offsets_[b],
            bucket_offsets_[b + 1] - bucket_offsets_[b]};
  }

  /// Bucket count b_j — an O(1) offset difference, no bucket materialized.
  uint32_t bucket_count(size_t b) const {
    return bucket_offsets_[b + 1] - bucket_offsets_[b];
  }

  /// Index of the bucket containing vector `id` (B(v) in the paper).
  uint32_t BucketOf(VectorId id) const { return bucket_of_[id]; }

  /// Bucket key g(v) for the bucket index `b`.
  uint64_t BucketKey(size_t b) const { return bucket_keys_[b]; }

  /// True iff B(u) = B(v).
  bool SameBucket(VectorId u, VectorId v) const {
    return bucket_of_[u] == bucket_of_[v];
  }

  /// N_H = Σ_j C(b_j, 2); the number of pairs in stratum H.
  uint64_t NumSameBucketPairs() const { return num_same_bucket_pairs_; }

  /// N_L = M − N_H; the number of pairs in stratum L.
  uint64_t NumCrossBucketPairs() const {
    const uint64_t n = bucket_of_.size();
    return n * (n - 1) / 2 - num_same_bucket_pairs_;
  }

  /// Uniform random pair from stratum H. Requires N_H > 0.
  VectorPair SampleSameBucketPair(Rng& rng) const;

  /// Uniform random pair from stratum L (rejection from all pairs; the
  /// expected number of rejections is N_H / M « 1). Requires N_L > 0.
  VectorPair SampleCrossBucketPair(Rng& rng) const;

  /// Uniform random pair of distinct vectors. Requires n ≥ 2.
  VectorPair SamplePair(Rng& rng) const;

  /// Estimated size of the table following the paper's §6.3 accounting:
  /// per bucket the g value (8 B) and the bucket count (4 B), plus one
  /// vector id (4 B) per indexed vector. Implementation-dependent overheads
  /// (the hash map itself) are excluded, as in the paper.
  size_t MemoryBytes() const;

  /// Map from bucket key to bucket index (used by general, non-self joins
  /// to align buckets of two tables).
  const std::unordered_map<uint64_t, uint32_t>& key_to_bucket() const {
    return key_to_bucket_;
  }

 private:
  /// Groups vectors into buckets by key (first-sighting order, see the file
  /// comment) and builds the sampling structures.
  void BuildFromKeys(const std::vector<uint64_t>& keys);

  uint32_t k_;
  // CSR bucket arena: bucket b's members are
  // bucket_members_[bucket_offsets_[b] .. bucket_offsets_[b+1]).
  std::vector<uint32_t> bucket_offsets_;
  std::vector<VectorId> bucket_members_;
  std::vector<uint64_t> bucket_keys_;
  std::vector<uint32_t> bucket_of_;  // vector id -> bucket index
  std::unordered_map<uint64_t, uint32_t> key_to_bucket_;
  uint64_t num_same_bucket_pairs_ = 0;
  // Alias table over buckets with >= 2 members, weight C(b_j, 2); null when
  // no bucket has 2 members.
  std::unique_ptr<AliasTable> pair_weighted_buckets_;
  std::vector<uint32_t> sampleable_buckets_;  // alias index -> bucket index
};

}  // namespace vsj

#endif  // VSJ_LSH_LSH_TABLE_H_
