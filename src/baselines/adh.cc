#include "baselines/adh.h"

#include "common/logging.h"

#include <algorithm>

#include "vecmath/vector_ops.h"

namespace mira::baselines {

float MeanMaxTokenSimilarity(const float* a, size_t a_rows, const float* b,
                             size_t b_rows, size_t dim) {
  if (a_rows == 0 || b_rows == 0) return 0.f;
  float total = 0.f;
  for (size_t i = 0; i < a_rows; ++i) {
    float best = -1.f;
    const float* ai = a + i * dim;
    for (size_t j = 0; j < b_rows; ++j) {
      float sim = vecmath::Dot(ai, b + j * dim, dim);
      if (sim > best) best = sim;
    }
    total += best;
  }
  return total / static_cast<float>(a_rows);
}

AdhSearcher::AdhSearcher(const table::Federation& federation,
                         std::shared_ptr<const CorpusFieldStats> stats,
                         std::shared_ptr<const embed::SemanticEncoder> encoder,
                         AdhOptions options)
    : stats_(std::move(stats)),
      encoder_(std::move(encoder)),
      options_(options) {
  MIRA_CHECK(stats_ != nullptr && encoder_ != nullptr);

  // Pre-embed each table's visible tokens (the "offline" BERT encoding).
  // AdH's content selectors feed *row/column/cell content* to BERT, so the
  // serialization is body-first: when the input cap truncates, it is table
  // content that gets lost — the failure mode the paper attributes AdH's
  // losses to.
  text::Tokenizer tokenizer = BaselineTokenizer();
  const size_t dim = encoder_->dim();
  table_token_vectors_.resize(stats_->tables.size());
  table_pooled_.resize(stats_->tables.size());
  for (size_t t = 0; t < stats_->tables.size(); ++t) {
    const table::Relation& relation = federation.relation(t);
    std::vector<std::string> tokens;
    for (const auto& row : relation.rows) {
      for (const auto& cell : row) {
        for (auto& token : tokenizer.Tokenize(cell)) {
          tokens.push_back(std::move(token));
        }
      }
    }
    for (const auto& column : relation.schema) {
      for (auto& token : tokenizer.Tokenize(column)) {
        tokens.push_back(std::move(token));
      }
    }
    for (auto& token : tokenizer.Tokenize(relation.caption)) {
      tokens.push_back(std::move(token));
    }
    size_t visible = std::min(tokens.size(), options_.input_token_budget);
    auto& flat = table_token_vectors_[t];
    flat.resize(visible * dim);
    for (size_t i = 0; i < visible; ++i) {
      vecmath::Vec v = encoder_->EncodeToken(tokens[i]);
      std::copy(v.begin(), v.end(), flat.begin() + i * dim);
    }
    std::vector<std::string> visible_tokens(tokens.begin(),
                                            tokens.begin() + visible);
    table_pooled_[t] = encoder_->EncodeTokens(visible_tokens);
  }
}

Result<discovery::Ranking> AdhSearcher::Search(
    const std::string& query,
    const discovery::DiscoveryOptions& options) const {
  text::Tokenizer tokenizer = BaselineTokenizer();
  std::vector<std::string> tokens = tokenizer.Tokenize(query);
  if (tokens.size() > options_.query_token_budget) {
    tokens.resize(options_.query_token_budget);
  }
  const size_t dim = encoder_->dim();
  std::vector<float> query_tokens(tokens.size() * dim);
  for (size_t i = 0; i < tokens.size(); ++i) {
    vecmath::Vec v = encoder_->EncodeToken(tokens[i]);
    std::copy(v.begin(), v.end(), query_tokens.begin() + i * dim);
  }

  vecmath::Vec query_pooled = encoder_->EncodeTokens(tokens);

  discovery::Ranking ranking;
  ranking.reserve(table_token_vectors_.size());
  for (size_t t = 0; t < table_token_vectors_.size(); ++t) {
    const auto& flat = table_token_vectors_[t];
    float interaction = MeanMaxTokenSimilarity(
        query_tokens.data(), tokens.size(), flat.data(), flat.size() / dim, dim);
    float pooled = vecmath::CosineSimilarity(query_pooled, table_pooled_[t]);
    float score = options_.pooled_weight * pooled +
                  (1.0f - options_.pooled_weight) * interaction;
    ranking.push_back({static_cast<table::RelationId>(t), score});
  }
  discovery::ApplyThresholdAndTopK(&ranking, options);
  return ranking;
}

}  // namespace mira::baselines
