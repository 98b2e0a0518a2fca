#include "vsj/text/vectorizer.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "vsj/util/check.h"

namespace vsj {

std::vector<std::string> Tokenize(std::string_view text,
                                  size_t min_token_length) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      if (current.size() >= min_token_length) tokens.push_back(current);
      current.clear();
    }
  }
  if (current.size() >= min_token_length) tokens.push_back(current);
  return tokens;
}

TextVectorizer::TextVectorizer(VectorizerOptions options)
    : options_(options) {}

VectorDataset TextVectorizer::FitTransform(
    const std::vector<std::string>& documents, std::string dataset_name) {
  // Pass 1: document frequencies (ordered map → deterministic dim ids).
  std::map<std::string, size_t> doc_frequency;
  std::vector<std::vector<std::string>> tokenized;
  tokenized.reserve(documents.size());
  for (const std::string& doc : documents) {
    tokenized.push_back(Tokenize(doc));
    std::vector<std::string> unique = tokenized.back();
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    for (const std::string& token : unique) ++doc_frequency[token];
  }

  vocabulary_.clear();
  idf_.clear();
  num_fitted_documents_ = documents.size();
  const double n = static_cast<double>(documents.size());
  for (const auto& [token, df] : doc_frequency) {
    if (df < options_.min_document_frequency) continue;
    const auto dim = static_cast<DimId>(vocabulary_.size());
    vocabulary_.emplace(token, dim);
    idf_.push_back(options_.tfidf
                       ? std::log((1.0 + n) / (1.0 + static_cast<double>(df)))
                             + 1.0
                       : 1.0);
  }

  VectorDataset dataset(std::move(dataset_name));
  for (const auto& tokens : tokenized) {
    dataset.Add(VectorizeTokens(tokens));
  }
  return dataset;
}

SparseVector TextVectorizer::Transform(std::string_view document) const {
  VSJ_CHECK_MSG(num_fitted_documents_ > 0,
                "Transform requires a fitted vocabulary");
  return VectorizeTokens(Tokenize(document));
}

int64_t TextVectorizer::DimOf(const std::string& token) const {
  auto it = vocabulary_.find(token);
  return it == vocabulary_.end() ? -1 : static_cast<int64_t>(it->second);
}

SparseVector TextVectorizer::VectorizeTokens(
    const std::vector<std::string>& tokens) const {
  std::unordered_map<DimId, uint32_t> term_frequency;
  for (const std::string& token : tokens) {
    auto it = vocabulary_.find(token);
    if (it != vocabulary_.end()) ++term_frequency[it->second];
  }
  std::vector<Feature> features;
  features.reserve(term_frequency.size());
  for (const auto& [dim, tf] : term_frequency) {
    const double weight = options_.tfidf
                              ? static_cast<double>(tf) * idf_[dim]
                              : 1.0;
    features.push_back(Feature{dim, static_cast<float>(weight)});
  }
  return SparseVector(std::move(features));
}

}  // namespace vsj
