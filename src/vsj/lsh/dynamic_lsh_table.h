// Dynamic LSH table: the bucket-count extension of §4.1.1 under inserts and
// deletes.
//
// The paper stresses that LSH-SS "only needs minimal addition to the
// existing LSH index"; production LSH indexes are dynamic (documents arrive
// and expire), so the estimator-facing quantities must stay maintainable
// online. This table keeps, under Insert/Remove:
//   * bucket membership with O(1) same-bucket tests,
//   * N_H = Σ C(b_j, 2) incrementally,
//   * weighted bucket sampling through a Fenwick tree over the pair
//     weights C(b_j, 2) — O(log n) per update and per draw, replacing the
//     static table's O(n) alias rebuild.
//
// Storage: bucket members live in one arena (member_arena_) with
// per-bucket {offset, size, capacity} slots. Buckets keep geometric
// capacity slack, so an insert is usually one store into reserved space; a
// full bucket relocates to the arena tail with doubled capacity, and the
// arena compacts (offsets move, slot order and member order do not) once
// relocation garbage exceeds the live footprint. Bucket slot indices and
// within-bucket member order — everything ReplayOrder captures — evolve
// exactly as they did with per-bucket vectors: slots append on first key
// sighting and persist through emptiness, members push at the tail and
// remove by swap-pop.

#ifndef VSJ_LSH_DYNAMIC_LSH_TABLE_H_
#define VSJ_LSH_DYNAMIC_LSH_TABLE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "vsj/lsh/lsh_family.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/util/fenwick_tree.h"
#include "vsj/util/rng.h"

namespace vsj {

/// Mutable LSH table with bucket counts and O(log n) stratum-H sampling.
class DynamicLshTable {
 public:
  /// `family` must outlive the table; hash functions
  /// [function_offset, function_offset + k) are used.
  DynamicLshTable(const LshFamily& family, uint32_t k,
                  uint32_t function_offset = 0);

  uint32_t k() const { return k_; }
  size_t num_vectors() const { return members_.size(); }
  size_t num_buckets() const { return num_nonempty_buckets_; }

  /// Inserts vector `id`, hashing through `scratch` (the hot path; the
  /// scratch may carry a projection cache). `id` must not be
  /// present.
  void Insert(VectorId id, VectorRef vector, HashScratch& scratch);

  /// Scratch-allocating overload (cold paths, tests).
  void Insert(VectorId id, VectorRef vector);

  /// Removes vector `id`; it must be present.
  void Remove(VectorId id);

  bool Contains(VectorId id) const { return members_.count(id) > 0; }

  /// True iff both vectors are present and share a bucket.
  bool SameBucket(VectorId u, VectorId v) const;

  /// Writes the bucket slot of every present id into `out[id]`; entries of
  /// absent ids are left untouched (callers pre-fill a sentinel). One flat
  /// O(n) export replaces the two hash-map lookups SameBucket pays per
  /// rejection test — the amortization behind the batched SampleL walk:
  /// bucket equality on the exported array answers exactly SameBucket for
  /// any two present ids. `out.size()` must exceed every present id.
  void ExportBucketOf(std::span<uint32_t> out) const {
    for (const auto& [id, membership] : members_) {
      out[id] = membership.bucket;
    }
  }

  /// N_H over the currently present vectors.
  uint64_t NumSameBucketPairs() const { return num_same_bucket_pairs_; }

  /// N_L = C(n, 2) − N_H over present vectors.
  uint64_t NumCrossBucketPairs() const;

  /// Uniform random pair from stratum H. Requires N_H > 0.
  VectorPair SampleSameBucketPair(Rng& rng) const;

  /// Total Fenwick weight Σ C(b_j, 2); equals NumSameBucketPairs() whenever
  /// the incremental maintenance is consistent (asserted by the churn test).
  double PairWeightTotal() const { return pair_weights_.Total(); }

  /// Snapshot support: an insertion order that, replayed through Insert on
  /// an empty table, reproduces this table's *sampling state* exactly —
  /// the present ids concatenated bucket-by-bucket in slot order, members
  /// in their current within-bucket order. Replay recreates the non-empty
  /// buckets in the same relative slot order with identical member arrays;
  /// empty historical bucket slots are dropped, which SampleSameBucketPair
  /// cannot observe (zero-weight slots never shift the Fenwick descent).
  std::vector<VectorId> ReplayOrder() const;

 private:
  struct Membership {
    uint32_t bucket;
    uint32_t position;  // index within the bucket's member list
  };

  /// Arena slot of one bucket: members at
  /// member_arena_[offset .. offset + size), reserved space to
  /// offset + capacity.
  struct BucketSlot {
    uint32_t offset;
    uint32_t size;
    uint32_t capacity;
  };

  /// The current members of bucket `b` (O(1); no per-bucket vector).
  std::span<const VectorId> BucketMembers(uint32_t b) const {
    const BucketSlot& slot = slots_[b];
    return {member_arena_.data() + slot.offset, slot.size};
  }

  /// Relocates bucket `b` to the arena tail with doubled capacity.
  void GrowBucket(uint32_t b);

  /// Compacts when relocation garbage + removal slack dominate the live
  /// members (O(1) trigger; see the .cc for the bound). Only called from
  /// mutation tails — never while a member write is pending.
  void MaybeCompactArena();

  /// Rewrites the arena slot-by-slot, dropping relocation garbage and
  /// trimming each bucket's capacity to the next power of two of its
  /// current size. Offsets and capacities change; slot indices and member
  /// order do not.
  void CompactArena();

  const LshFamily* family_;
  uint32_t k_;
  uint32_t function_offset_;
  std::vector<BucketSlot> slots_;  // index = bucket id, append-only
  std::vector<VectorId> member_arena_;
  std::unordered_map<uint64_t, uint32_t> key_to_bucket_;
  std::unordered_map<VectorId, Membership> members_;
  FenwickTree pair_weights_;  // slot per bucket, weight C(b, 2)
  uint64_t num_same_bucket_pairs_ = 0;
  size_t num_nonempty_buckets_ = 0;
};

}  // namespace vsj

#endif  // VSJ_LSH_DYNAMIC_LSH_TABLE_H_
