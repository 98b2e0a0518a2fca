// Text vectorizer: raw documents → the sparse vectors of the VSJ problem.
//
// The paper's corpora are bag-of-words projections of text (DBLP titles,
// NYT articles, PubMed abstracts): "a document can be modeled with a vector
// of words with TF-IDF weights" (§1). This module supplies that projection
// so the library can be pointed at real documents:
//   * tokenizer: lowercase, split on non-alphanumerics, length filter;
//   * vocabulary: token → dimension id, built on fit;
//   * weighting: binary presence or TF-IDF with smoothed idf
//     log((1 + N)/(1 + df)) + 1.

#ifndef VSJ_TEXT_VECTORIZER_H_
#define VSJ_TEXT_VECTORIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "vsj/vector/vector_dataset.h"

namespace vsj {

/// Lowercased alphanumeric tokens of `text`, shorter tokens dropped.
std::vector<std::string> Tokenize(std::string_view text,
                                  size_t min_token_length = 2);

/// Vectorizer options.
struct VectorizerOptions {
  bool tfidf = true;  // false → binary presence vectors
  /// Tokens appearing in fewer than this many documents are dropped.
  size_t min_document_frequency = 1;
};

/// Fit-once vocabulary + weighting; transforms documents to vectors.
class TextVectorizer {
 public:
  explicit TextVectorizer(VectorizerOptions options = {});

  /// Builds the vocabulary and document frequencies from `documents` and
  /// returns their vectorization.
  VectorDataset FitTransform(const std::vector<std::string>& documents,
                             std::string dataset_name = "text");

  /// Vectorizes one document with the fitted vocabulary; out-of-vocabulary
  /// tokens are ignored. Must be called after FitTransform.
  SparseVector Transform(std::string_view document) const;

  size_t vocabulary_size() const { return vocabulary_.size(); }

  /// Dimension of `token`, or -1 when out of vocabulary.
  int64_t DimOf(const std::string& token) const;

 private:
  SparseVector VectorizeTokens(const std::vector<std::string>& tokens) const;

  VectorizerOptions options_;
  std::unordered_map<std::string, DimId> vocabulary_;
  std::vector<double> idf_;  // by dimension id (1.0 when binary)
  size_t num_fitted_documents_ = 0;
};

}  // namespace vsj

#endif  // VSJ_TEXT_VECTORIZER_H_
