#include "vsj/lsh/lsh_table.h"

#include <numeric>

#include "vsj/util/check.h"

namespace vsj {

LshTable::LshTable(const LshFamily& family, DatasetView dataset,
                   uint32_t k, uint32_t function_offset)
    : k_(k) {
  VSJ_CHECK(k > 0);
  std::vector<uint64_t> keys(dataset.size());
  HashScratch scratch;
  ComputeBucketKeys(family, dataset, k, function_offset, 0,
                    static_cast<VectorId>(dataset.size()), keys.data(),
                    scratch);
  BuildFromKeys(keys);
}

LshTable::LshTable(DatasetView dataset, uint32_t k,
                   const std::vector<uint64_t>& keys)
    : k_(k) {
  VSJ_CHECK(k > 0);
  VSJ_CHECK_MSG(keys.size() == dataset.size(),
                "need one precomputed key per vector");
  BuildFromKeys(keys);
}

void LshTable::ComputeBucketKeys(const LshFamily& family, DatasetView dataset,
                                 uint32_t k, uint32_t function_offset,
                                 VectorId begin, VectorId end, uint64_t* out,
                                 HashScratch& scratch) {
  for (VectorId id = begin; id < end; ++id) {
    out[id - begin] =
        family.BucketKey(dataset[id], function_offset, k, scratch);
  }
}

void LshTable::ComputeBucketKeys(const LshFamily& family,
                                 DatasetView dataset, uint32_t k,
                                 uint32_t function_offset, VectorId begin,
                                 VectorId end, uint64_t* out) {
  HashScratch scratch;
  ComputeBucketKeys(family, dataset, k, function_offset, begin, end, out,
                    scratch);
}

void LshTable::BuildFromKeys(const std::vector<uint64_t>& keys) {
  // One pass over ids: a key's first sighting opens the next bucket, and
  // bucket_offsets_[b + 1] counts bucket b's members.
  const size_t n = keys.size();
  bucket_of_.resize(n);
  bucket_offsets_.assign(1, 0);
  for (size_t id = 0; id < n; ++id) {
    const auto [it, inserted] = key_to_bucket_.try_emplace(
        keys[id], static_cast<uint32_t>(bucket_keys_.size()));
    if (inserted) {
      bucket_keys_.push_back(keys[id]);
      bucket_offsets_.push_back(0);
    }
    bucket_of_[id] = it->second;
    ++bucket_offsets_[it->second + 1];
  }

  // Counting pass: counts become offsets, and ids in ascending order fill
  // each bucket's slice of the arena.
  std::partial_sum(bucket_offsets_.begin(), bucket_offsets_.end(),
                   bucket_offsets_.begin());
  std::vector<uint32_t> cursor(bucket_offsets_.begin(),
                               bucket_offsets_.end() - 1);
  bucket_members_.resize(n);
  for (size_t id = 0; id < n; ++id) {
    bucket_members_[cursor[bucket_of_[id]]++] = static_cast<VectorId>(id);
  }

  const size_t num_buckets = bucket_keys_.size();

  std::vector<double> weights;
  weights.reserve(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    const uint64_t size = bucket_count(b);
    const uint64_t pairs = size * (size - 1) / 2;
    num_same_bucket_pairs_ += pairs;
    if (pairs > 0) {
      sampleable_buckets_.push_back(static_cast<uint32_t>(b));
      weights.push_back(static_cast<double>(pairs));
    }
  }
  if (!weights.empty()) {
    pair_weighted_buckets_ = std::make_unique<AliasTable>(weights);
  }
}

VectorPair LshTable::SampleSameBucketPair(Rng& rng) const {
  VSJ_CHECK_MSG(pair_weighted_buckets_ != nullptr,
                "stratum H is empty: no bucket holds two vectors");
  const uint32_t b = sampleable_buckets_[pair_weighted_buckets_->Sample(rng)];
  const std::span<const VectorId> members = bucket(b);
  const VectorPair pair = SampleDistinctPair(members.size(), rng);
  return VectorPair{members[pair.first], members[pair.second]};
}

VectorPair LshTable::SampleCrossBucketPair(Rng& rng) const {
  VSJ_CHECK_MSG(NumCrossBucketPairs() > 0, "stratum L is empty");
  while (true) {
    VectorPair pair = SamplePair(rng);
    if (!SameBucket(pair.first, pair.second)) return pair;
  }
}

VectorPair LshTable::SamplePair(Rng& rng) const {
  VSJ_CHECK(bucket_of_.size() >= 2);
  return SampleDistinctPair(bucket_of_.size(), rng);
}

size_t LshTable::MemoryBytes() const {
  return bucket_keys_.size() * (sizeof(uint64_t) + sizeof(uint32_t)) +
         bucket_of_.size() * sizeof(VectorId);
}

}  // namespace vsj
