// prepare: input preparation, excluded from every measurement. Writes
//   nyt.vsjb    static NYT-like TF-IDF relation (VSJB v2, served by mmap)
//   dblp.vsjs   streaming DBLP-like engine after a seeded churn history
//   truth.json  exact J(τ) of both tenants on the 9-τ sweep grid
// The ground truth is a brute-force pass over every live pair, one
// similarity per pair thresholded against all nine τ; run.py caches the
// directory, so it is paid once per checkout and scale.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "commands.h"
#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/io/dataset_io.h"
#include "vsj/net/json.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/vector/similarity.h"
#include "workload.h"

namespace servebench {

namespace {

// Fixed corpus seeds: the relations are part of the workload definition.
constexpr uint64_t kNytDataSeed = 2;
constexpr uint64_t kDblpDataSeed = 1;

/// Exact J(τ) over the unordered pairs of `ids` for every sweep τ.
std::vector<uint64_t> ExactJoinSizes(vsj::DatasetView view,
                                     const std::vector<vsj::VectorId>& ids) {
  const std::vector<double> taus = SweepThresholds();
  const size_t num_threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::vector<uint64_t>> partial(
      num_threads, std::vector<uint64_t>(taus.size(), 0));
  std::atomic<size_t> next_row{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < num_threads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<uint64_t>& counts = partial[w];
      for (size_t i = next_row++; i < ids.size(); i = next_row++) {
        const vsj::VectorRef a = view[ids[i]];
        for (size_t j = i + 1; j < ids.size(); ++j) {
          const double sim =
              vsj::Similarity(vsj::SimilarityMeasure::kCosine, a, view[ids[j]]);
          for (size_t t = 0; t < taus.size() && sim >= taus[t]; ++t) ++counts[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::vector<uint64_t> total(taus.size(), 0);
  for (const auto& counts : partial) {
    for (size_t t = 0; t < taus.size(); ++t) total[t] += counts[t];
  }
  return total;
}

vsj::net::JsonValue TruthJson(const std::vector<uint64_t>& sizes,
                              size_t num_live) {
  const std::vector<double> taus = SweepThresholds();
  vsj::net::JsonValue joins = vsj::net::JsonValue::Array();
  for (size_t t = 0; t < taus.size(); ++t) {
    joins.Append(vsj::net::JsonValue::Array()
                     .Append(vsj::net::JsonValue::Number(taus[t]))
                     .Append(vsj::net::JsonValue::Number(
                         static_cast<double>(sizes[t]))));
  }
  return vsj::net::JsonValue::Object()
      .Set("num_live", vsj::net::JsonValue::Number(static_cast<double>(num_live)))
      .Set("join_sizes", joins);
}

}  // namespace

int RunPrepare(const Flags& flags) {
  Scale scale;
  if (!LookupScale(flags.Get("scale", "full"), &scale)) {
    std::cerr << "prepare: unknown --scale\n";
    return 2;
  }
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::cerr << "prepare: --out DIR is required\n";
    return 2;
  }

  // Static tenant.
  const vsj::VectorDataset nyt =
      vsj::GenerateCorpus(vsj::NytLikeConfig(scale.nyt_n, kNytDataSeed));
  vsj::IoStatus status = vsj::SaveDatasetToFile(nyt, out + "/nyt.vsjb");
  if (!status.ok()) {
    std::cerr << "prepare: " << status.ToString() << "\n";
    return 1;
  }
  std::vector<vsj::VectorId> all(nyt.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<vsj::VectorId>(i);
  const std::vector<uint64_t> nyt_truth = ExactJoinSizes(nyt, all);

  // Streaming tenant: fill the window [0, live), then slide it `history`
  // steps so the index has seen churn before the checkpoint.
  vsj::StreamingEstimationServiceOptions options;
  options.num_threads = 4;
  auto dblp = std::make_unique<vsj::StreamingEstimationService>(
      vsj::GenerateCorpus(vsj::DblpLikeConfig(scale.dblp_n, kDblpDataSeed)),
      options);
  for (size_t id = 0; id < scale.dblp_live; ++id) {
    dblp->Insert(static_cast<vsj::VectorId>(id));
  }
  for (size_t s = 0; s < scale.dblp_history; ++s) {
    dblp->Remove(static_cast<vsj::VectorId>(s));
    dblp->Insert(static_cast<vsj::VectorId>(s + scale.dblp_live));
  }
  status = dblp->Checkpoint(out + "/dblp.vsjs");
  if (!status.ok()) {
    std::cerr << "prepare: " << status.ToString() << "\n";
    return 1;
  }
  const std::vector<uint64_t> dblp_truth =
      ExactJoinSizes(dblp->dataset(), dblp->index().live_ids());

  const std::string truth =
      vsj::net::JsonValue::Object()
          .Set(kStaticTenant, TruthJson(nyt_truth, nyt.size()))
          .Set(kStreamingTenant, TruthJson(dblp_truth, dblp->num_live()))
          .Serialize();
  std::FILE* file = std::fopen((out + "/truth.json").c_str(), "w");
  if (file == nullptr || std::fputs(truth.c_str(), file) < 0 ||
      std::fclose(file) != 0) {
    std::cerr << "prepare: cannot write " << out << "/truth.json\n";
    return 1;
  }
  std::printf("%s\n", truth.c_str());
  return 0;
}

}  // namespace servebench
