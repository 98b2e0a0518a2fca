// Cross-format compatibility: a corpus saved as VSJD v1, loaded, re-saved
// as VSJB v2 and loaded again must be indistinguishable to the estimator
// stack — same vectors, same norms, bit-identical estimates from every
// registered estimator (the re-save path a deployment takes when migrating
// an existing dataset directory to v2).

#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/io/dataset_io.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/lsh/simhash.h"
#include "vsj/util/rng.h"

namespace vsj {
namespace {

TEST(FormatCompatTest, V1ToV2ResaveIsEstimatorBitIdentical) {
  VectorDataset original = testing::SmallClusteredCorpus(220, 13);

  // original --v1--> loaded_v1 --v2--> loaded_v2.
  std::stringstream v1_stream;
  ASSERT_TRUE(WriteDatasetV1(original, v1_stream).ok());
  VectorDataset loaded_v1;
  uint32_t version = 0;
  ASSERT_TRUE(ReadDataset(v1_stream, &loaded_v1, &version).ok());
  EXPECT_EQ(version, kVsjdVersion);

  std::stringstream v2_stream;
  ASSERT_TRUE(WriteDataset(loaded_v1, v2_stream).ok());
  VectorDataset loaded_v2;
  ASSERT_TRUE(ReadDataset(v2_stream, &loaded_v2, &version).ok());
  EXPECT_EQ(version, kVsjbVersion);

  // Both hops keep every vector and its norm.
  for (const VectorDataset* loaded : {&loaded_v1, &loaded_v2}) {
    ASSERT_EQ(loaded->size(), original.size());
    for (VectorId id = 0; id < original.size(); ++id) {
      ASSERT_TRUE((*loaded)[id] == original[id]) << "vector " << id;
      EXPECT_EQ((*loaded)[id].norm(), original[id].norm()) << "vector " << id;
    }
  }

  // Every registered estimator, same seeds, across the three copies.
  constexpr uint64_t kSeed = 0xc0ffeeULL;
  constexpr uint32_t kK = 8;
  SimHashFamily family(kSeed);
  const VectorDataset* datasets[] = {&original, &loaded_v1, &loaded_v2};
  std::unique_ptr<LshIndex> indexes[3];
  for (int d = 0; d < 3; ++d) {
    indexes[d] = std::make_unique<LshIndex>(family, *datasets[d], kK, 2);
  }
  for (const std::string& name : AllEstimatorNames()) {
    for (const double tau : {0.4, 0.8}) {
      double reference = 0.0;
      for (int d = 0; d < 3; ++d) {
        EstimatorContext context;
        context.dataset = *datasets[d];
        context.index = indexes[d].get();
        context.measure = SimilarityMeasure::kCosine;
        const auto estimator = CreateEstimator(name, context);
        Rng rng(kSeed + 7);
        const double estimate = estimator->Estimate(tau, rng).estimate;
        if (d == 0) {
          reference = estimate;
        } else {
          EXPECT_EQ(estimate, reference)
              << name << " tau=" << tau << " dataset " << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vsj
