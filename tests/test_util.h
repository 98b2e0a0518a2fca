// Shared fixtures for estimator tests: small clustered corpora where exact
// join sizes are cheap to compute, plus canned LSH setups; and the hostile
// container files of the loader tests.

#ifndef VSJ_TESTS_TEST_UTIL_H_
#define VSJ_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/lsh/minhash.h"
#include "vsj/lsh/simhash.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj::testing {

/// A small DBLP-flavoured corpus with a fat near-duplicate tail so that
/// high thresholds still have true pairs.
inline VectorDataset SmallClusteredCorpus(size_t n = 800, uint64_t seed = 1) {
  CorpusConfig config = DblpLikeConfig(n, seed);
  config.cluster_fraction = 0.25;
  config.mean_cluster_size = 3.0;
  config.min_mutation = 0.02;
  config.max_mutation = 0.25;
  return GenerateCorpus(config);
}

/// Bundles a dataset with a SimHash index (cosine).
struct CosineSetup {
  VectorDataset dataset;
  std::unique_ptr<SimHashFamily> family;
  std::unique_ptr<LshIndex> index;
};

inline CosineSetup MakeCosineSetup(size_t n = 800, uint32_t k = 10,
                                   uint32_t tables = 1, uint64_t seed = 1) {
  CosineSetup setup;
  setup.dataset = SmallClusteredCorpus(n, seed);
  setup.family = std::make_unique<SimHashFamily>(seed ^ 0xabcdef);
  setup.index = std::make_unique<LshIndex>(*setup.family, setup.dataset, k,
                                           tables);
  return setup;
}

/// Bundles a binary dataset with a MinHash index (Jaccard; exact Def. 3).
struct JaccardSetup {
  VectorDataset dataset;
  std::unique_ptr<MinHashFamily> family;
  std::unique_ptr<LshIndex> index;
};

inline JaccardSetup MakeJaccardSetup(size_t n = 800, uint32_t k = 6,
                                     uint32_t tables = 1, uint64_t seed = 2) {
  JaccardSetup setup;
  setup.dataset = SmallClusteredCorpus(n, seed);
  setup.family = std::make_unique<MinHashFamily>(seed ^ 0x123456);
  setup.index = std::make_unique<LshIndex>(*setup.family, setup.dataset, k,
                                           tables);
  return setup;
}

// Hostile container files: each header claims far more bytes than the
// file holds. Every loader must answer them with a named IoStatus and never
// size an allocation from the claim.

template <typename T>
void AppendPod(std::string* bytes, const T& value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// A bare 64-byte header with the given magic/version whose name_length is
/// 2^40 - 1 (VSJB: the v2-name file; VSJS: the snapshot header).
inline std::string HostileNameHeader(const char (&magic)[4],
                                     uint32_t version) {
  VsjbHeader header{};
  std::memcpy(header.magic, magic, sizeof(header.magic));
  header.version = version;
  header.name_length = (uint64_t{1} << 40) - 1;
  std::string bytes;
  AppendPod(&bytes, header);
  return bytes;
}

/// A 128-byte VSJB file whose one section entry claims 2^42 bytes.
inline std::string HostileVsjbSectionLength() {
  VsjbHeader header{};
  std::memcpy(header.magic, kVsjbMagic, sizeof(header.magic));
  header.version = kVsjbVersion;
  header.section_count = 1;
  VsjbSectionEntry entry{};
  entry.id = kSecOffsets;
  entry.offset = 2 * kVsjbAlignment;
  entry.length = uint64_t{1} << 42;
  std::string bytes;
  AppendPod(&bytes, header);
  AppendPod(&bytes, entry);
  bytes.resize(2 * kVsjbAlignment, '\0');
  return bytes;
}

/// A 28-byte VSJD v1 file: an empty name and one vector that claims
/// 0xFFFFFFFF features.
inline std::string HostileVsjdFeatureCount() {
  std::string bytes(kVsjdMagic, sizeof(kVsjdMagic));
  AppendPod(&bytes, kVsjdVersion);
  AppendPod(&bytes, uint64_t{0});           // name length
  AppendPod(&bytes, uint64_t{1});           // vector count
  AppendPod(&bytes, uint32_t{0xFFFFFFFF});  // features of vector 0
  return bytes;
}

/// The three hostile dataset files (v2-name, v2-section, v1-count).
inline std::vector<std::string> HostileDatasetFiles() {
  return {HostileNameHeader(kVsjbMagic, kVsjbVersion),
          HostileVsjbSectionLength(), HostileVsjdFeatureCount()};
}

inline void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace vsj::testing

#endif  // VSJ_TESTS_TEST_UTIL_H_
