#include "vsj/lsh/lsh_table.h"

#include <algorithm>
#include <utility>

#include "vsj/lsh/bucket_grouper.h"
#include "vsj/util/check.h"
#include "vsj/util/hash.h"

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
  scratch.signature.resize(k);
  uint64_t* signature = scratch.signature.data();
  for (VectorId id = begin; id < end; ++id) {
    family.HashRange(dataset[id], function_offset, k, signature, scratch);
    uint64_t key = 0x2545f4914f6cdd1dULL;
    for (uint32_t j = 0; j < k; ++j) key = HashCombine(key, signature[j]);
    out[id - begin] = key;
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
  BucketGrouping grouping = GroupByBucketKey(keys);
  bucket_offsets_ = std::move(grouping.offsets);
  bucket_members_ = std::move(grouping.members);
  bucket_keys_ = std::move(grouping.bucket_keys);
  bucket_of_ = std::move(grouping.bucket_of);

  const size_t num_buckets = bucket_keys_.size();
  key_to_bucket_.reserve(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    key_to_bucket_.emplace(bucket_keys_[b], static_cast<uint32_t>(b));
  }

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
