#include "baselines/tml.h"

#include "common/logging.h"

#include <algorithm>

#include "baselines/adh.h"
#include "vecmath/vector_ops.h"

namespace mira::baselines {

TmlSearcher::TmlSearcher(const table::Federation& federation,
                         std::shared_ptr<const CorpusFieldStats> stats,
                         std::shared_ptr<const embed::SemanticEncoder> encoder,
                         TmlOptions options)
    : stats_(std::move(stats)),
      encoder_(std::move(encoder)),
      options_(options) {
  MIRA_CHECK(stats_ != nullptr && encoder_ != nullptr);
  (void)federation;

  const size_t num_tables = std::max<size_t>(1, stats_->tables.size());
  tokens_per_table_ = std::clamp(options_.total_context_tokens / num_tables,
                                 options_.min_tokens_per_table,
                                 options_.max_tokens_per_table);

  const size_t dim = encoder_->dim();
  table_token_vectors_.resize(stats_->tables.size());
  table_pooled_.resize(stats_->tables.size());
  for (size_t t = 0; t < stats_->tables.size(); ++t) {
    const auto& tokens = stats_->tables[t].serialized_tokens;
    size_t visible = std::min(tokens.size(), tokens_per_table_);
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

Result<discovery::Ranking> TmlSearcher::Search(
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
    size_t table_rows = flat.size() / dim;
    // Bidirectional soft matching (query->table and table->query) blended
    // with the sequence-level similarity.
    float forward = MeanMaxTokenSimilarity(query_tokens.data(), tokens.size(),
                                           flat.data(), table_rows, dim);
    float backward = MeanMaxTokenSimilarity(flat.data(), table_rows,
                                            query_tokens.data(), tokens.size(),
                                            dim);
    float interaction = 0.5f * (forward + backward);
    float pooled = vecmath::CosineSimilarity(query_pooled, table_pooled_[t]);
    ranking.push_back({static_cast<table::RelationId>(t),
                       options_.pooled_weight * pooled +
                           (1.0f - options_.pooled_weight) * interaction});
  }
  discovery::ApplyThresholdAndTopK(&ranking, options);
  return ranking;
}

}  // namespace mira::baselines
