// End-to-end text pipeline: raw documents → vectors → persisted dataset →
// LSH index → join-size estimate, exercising the text and io modules.
//
// Mimics a production ingestion flow: titles are vectorized once and saved;
// a later process loads the dataset, builds the (cheap, deterministic) LSH
// table, and serves join-size estimates for query optimization.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/io/dataset_io.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/lsh/simhash.h"
#include "vsj/text/vectorizer.h"
#include "vsj/util/rng.h"

namespace {

/// Synthesizes paper-title-like strings, with rewordings and duplicates.
std::vector<std::string> MakeTitles(size_t count) {
  const std::vector<std::string> topics = {
      "similarity join size estimation", "locality sensitive hashing",
      "query optimization in database systems", "near duplicate detection",
      "random sampling for selectivity", "inverted index construction",
      "cosine similarity search", "stratified sampling with guarantees"};
  const std::vector<std::string> qualifiers = {
      "efficient", "scalable", "practical",  "approximate",
      "exact",     "adaptive", "incremental"};
  const std::vector<std::string> suffixes = {
      "using lsh",       "with probabilistic guarantees",
      "for text corpora", "in high dimensions", "revisited",
      "a survey",        "at web scale"};
  vsj::Rng rng(2011);
  std::vector<std::string> titles;
  titles.reserve(count);
  while (titles.size() < count) {
    std::string title = qualifiers[rng.Below(qualifiers.size())] + " " +
                        topics[rng.Below(topics.size())] + " " +
                        suffixes[rng.Below(suffixes.size())];
    titles.push_back(title);
    // Occasionally emit a duplicate or a lightly reworded variant.
    if (titles.size() < count && rng.NextBool(0.15)) {
      if (rng.NextBool(0.5)) {
        titles.push_back(title);  // exact duplicate
      } else {
        titles.push_back(title + " " +
                         qualifiers[rng.Below(qualifiers.size())]);
      }
    }
  }
  return titles;
}

}  // namespace

int main() {
  // --- Ingestion: vectorize and persist. ---
  const std::vector<std::string> titles = MakeTitles(4000);
  vsj::TextVectorizer vectorizer;
  vsj::VectorDataset dataset = vectorizer.FitTransform(titles, "titles");
  std::cout << "vectorized " << dataset.size() << " titles, vocabulary "
            << vectorizer.vocabulary_size() << " tokens\n";

  const std::string path = "/tmp/vsj_text_pipeline.vsjb";
  if (const vsj::IoStatus status = vsj::SaveDatasetToFile(dataset, path);
      !status.ok()) {
    std::cerr << "failed to save dataset: " << status.ToString() << "\n";
    return 1;
  }

  // --- Serving: load, index, estimate. ---
  vsj::VectorDataset loaded;
  if (const vsj::IoStatus status = vsj::LoadDatasetFromFile(path, &loaded);
      !status.ok()) {
    std::cerr << "failed to load dataset: " << status.ToString() << "\n";
    return 1;
  }
  std::remove(path.c_str());
  std::cout << "reloaded dataset '" << loaded.name() << "' with "
            << loaded.size() << " vectors\n";

  vsj::SimHashFamily family(7);
  vsj::LshTable table(family, loaded, /*k=*/16);
  vsj::LshSsEstimator estimator(loaded, table,
                                vsj::SimilarityMeasure::kCosine);

  const vsj::GroundTruth truth(loaded, vsj::SimilarityMeasure::kCosine,
                               {0.5, 0.8, 0.95});
  vsj::Rng rng(3);
  for (double tau : truth.thresholds()) {
    const double estimate = estimator.Estimate(tau, rng).estimate;
    std::cout << "tau = " << tau << ": estimated " << estimate
              << " similar title pairs (exact " << truth.JoinSize(tau)
              << ")\n";
  }
  return 0;
}
