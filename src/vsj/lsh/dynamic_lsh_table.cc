#include "vsj/lsh/dynamic_lsh_table.h"

#include <algorithm>
#include <bit>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

inline double PairWeight(size_t bucket_size) {
  return 0.5 * static_cast<double>(bucket_size) *
         static_cast<double>(bucket_size - 1);
}

/// Initial reserved capacity of a fresh bucket slot.
constexpr uint32_t kInitialBucketCapacity = 2;

/// Compaction floor: arenas below this never compact (the bookkeeping
/// would outweigh the bytes).
constexpr size_t kMinArenaForCompaction = 1024;

/// The capacity CompactArena trims a bucket of `size` members to: the next
/// power of two (so growth stays geometric), never below the initial
/// capacity — empty slots keep room for a same-signature reinsertion.
inline uint32_t TrimmedCapacity(uint32_t size) {
  return std::max(kInitialBucketCapacity, std::bit_ceil(size));
}

}  // namespace

DynamicLshTable::DynamicLshTable(const LshFamily& family, uint32_t k,
                                 uint32_t function_offset)
    : family_(&family), k_(k), function_offset_(function_offset) {
  VSJ_CHECK(k > 0);
}

void DynamicLshTable::GrowBucket(uint32_t b) {
  // A grow relocates the bucket's members to fresh arena space — rare
  // (amortized by doubling), so a counter here is off the common path.
  VSJ_COUNTER_ADD("lsh.dyn.relocations", 1);
  BucketSlot& slot = slots_[b];
  const uint32_t new_capacity = slot.capacity * 2;
  const auto new_offset = static_cast<uint32_t>(member_arena_.size());
  member_arena_.resize(member_arena_.size() + new_capacity);
  std::copy_n(member_arena_.begin() + slot.offset, slot.size,
              member_arena_.begin() + new_offset);
  slot.offset = new_offset;
  slot.capacity = new_capacity;
  // The abandoned region is garbage; MaybeCompactArena reclaims it. The
  // compaction must NOT run here: Insert still has a member write pending
  // against the grown bucket's slack, which trimming would take away.
}

void DynamicLshTable::MaybeCompactArena() {
  // O(1) trigger. A compacted arena is Σ max(2, bit_ceil(size)) ≤
  // 2·members + 2·slots, so exceeding twice that guarantees the rebuild at
  // least halves the arena — geometric shrink, amortized O(1) per
  // mutation. With pure doubling growth garbage stays below the reserved
  // footprint (every relocation adds equally to both); the trigger only
  // trips once churn shrinks buckets far below their historical capacity.
  if (member_arena_.size() <= kMinArenaForCompaction) return;
  if (member_arena_.size() >
      4 * (members_.size() + slots_.size())) {
    CompactArena();
  }
}

void DynamicLshTable::CompactArena() {
  VSJ_COUNTER_ADD("lsh.dyn.compactions", 1);
  VSJ_TRACE_SPAN(compact_span, "lsh.dyn.compact_ns");
  size_t trimmed_total = 0;
  for (const BucketSlot& slot : slots_) {
    trimmed_total += TrimmedCapacity(slot.size);
  }
  std::vector<VectorId> fresh(trimmed_total);
  uint32_t offset = 0;
  for (BucketSlot& slot : slots_) {
    std::copy_n(member_arena_.begin() + slot.offset, slot.size,
                fresh.begin() + offset);
    slot.offset = offset;
    slot.capacity = TrimmedCapacity(slot.size);
    offset += slot.capacity;
  }
  member_arena_ = std::move(fresh);
}

void DynamicLshTable::Insert(VectorId id, VectorRef vector,
                             HashScratch& scratch) {
  VSJ_CHECK_MSG(!Contains(id), "vector %u already present", id);
  const uint64_t key =
      family_->BucketKey(vector, function_offset_, k_, scratch);
  auto [it, inserted] =
      key_to_bucket_.try_emplace(key, static_cast<uint32_t>(slots_.size()));
  if (inserted) {
    slots_.push_back(BucketSlot{static_cast<uint32_t>(member_arena_.size()),
                                0, kInitialBucketCapacity});
    member_arena_.resize(member_arena_.size() + kInitialBucketCapacity);
    const size_t fenwick_slot = pair_weights_.Append();
    VSJ_DCHECK(fenwick_slot == slots_.size() - 1);
    (void)fenwick_slot;
  }
  const uint32_t b = it->second;
  if (slots_[b].size == slots_[b].capacity) GrowBucket(b);
  BucketSlot& slot = slots_[b];
  if (slot.size == 0) ++num_nonempty_buckets_;
  num_same_bucket_pairs_ += slot.size;  // new pairs with each member
  members_[id] = Membership{b, slot.size};
  member_arena_[slot.offset + slot.size] = id;
  ++slot.size;
  pair_weights_.Set(b, PairWeight(slot.size));
  MaybeCompactArena();
}

void DynamicLshTable::Insert(VectorId id, VectorRef vector) {
  HashScratch scratch;
  Insert(id, vector, scratch);
}

void DynamicLshTable::Remove(VectorId id) {
  auto it = members_.find(id);
  VSJ_CHECK_MSG(it != members_.end(), "vector %u not present", id);
  const Membership membership = it->second;
  BucketSlot& slot = slots_[membership.bucket];
  // Swap-pop within the bucket; fix the displaced member's position.
  const VectorId last = member_arena_[slot.offset + slot.size - 1];
  member_arena_[slot.offset + membership.position] = last;
  --slot.size;
  if (last != id) members_[last].position = membership.position;
  members_.erase(it);
  num_same_bucket_pairs_ -= slot.size;
  if (slot.size == 0) --num_nonempty_buckets_;
  pair_weights_.Set(membership.bucket, PairWeight(slot.size));
  // The bucket slot and the key mapping stay allocated: a reinserted
  // vector with the same signature reuses them. Reserved slack persists
  // until mass removals trip the compaction trigger.
  MaybeCompactArena();
}

std::vector<VectorId> DynamicLshTable::ReplayOrder() const {
  std::vector<VectorId> order;
  order.reserve(members_.size());
  for (uint32_t b = 0; b < slots_.size(); ++b) {
    const std::span<const VectorId> bucket = BucketMembers(b);
    order.insert(order.end(), bucket.begin(), bucket.end());
  }
  return order;
}

bool DynamicLshTable::SameBucket(VectorId u, VectorId v) const {
  auto iu = members_.find(u);
  auto iv = members_.find(v);
  if (iu == members_.end() || iv == members_.end()) return false;
  return iu->second.bucket == iv->second.bucket;
}

uint64_t DynamicLshTable::NumCrossBucketPairs() const {
  const uint64_t n = members_.size();
  return n * (n - 1) / 2 - num_same_bucket_pairs_;
}

VectorPair DynamicLshTable::SampleSameBucketPair(Rng& rng) const {
  VSJ_CHECK_MSG(num_same_bucket_pairs_ > 0, "stratum H is empty");
  const size_t b = pair_weights_.Sample(rng);
  const std::span<const VectorId> members =
      BucketMembers(static_cast<uint32_t>(b));
  VSJ_DCHECK(members.size() >= 2);
  const VectorPair pair = SampleDistinctPair(members.size(), rng);
  return VectorPair{members[pair.first], members[pair.second]};
}

}  // namespace vsj
