#include "baselines/tcs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "vecmath/vector_ops.h"

namespace mira::baselines {

namespace {

// tf-idf cosine between the query tokens and a table body bag.
double TfIdfCosine(const text::CorpusStats& stats,
                   const std::vector<int32_t>& query_ids,
                   const text::TermBag& doc) {
  std::unordered_map<int32_t, double> query_tf;
  for (int32_t id : query_ids) {
    if (id >= 0) query_tf[id] += 1.0;
  }
  double dot = 0.0, qnorm = 0.0;
  for (const auto& [id, tf] : query_tf) {
    double idf = stats.Idf(id);
    double qw = tf * idf;
    qnorm += qw * qw;
    double dw = static_cast<double>(doc.Count(id)) * idf;
    dot += qw * dw;
  }
  double dnorm = 0.0;
  for (const auto& [id, tf] : doc.counts) {
    double dw = static_cast<double>(tf) * stats.Idf(id);
    dnorm += dw * dw;
  }
  if (qnorm <= 0.0 || dnorm <= 0.0) return 0.0;
  return dot / (std::sqrt(qnorm) * std::sqrt(dnorm));
}

}  // namespace

TcsSearcher::TcsSearcher(std::shared_ptr<const CorpusFieldStats> stats,
                         std::shared_ptr<const embed::SemanticEncoder> encoder,
                         TcsOptions options)
    : stats_(std::move(stats)),
      encoder_(std::move(encoder)),
      options_(options) {}

std::vector<double> TcsSearcher::Features(
    const std::vector<std::string>& tokens, const vecmath::Vec& query_embedding,
    size_t table_index) const {
  const TableFieldData& table = stats_->tables[table_index];
  std::vector<int32_t> body_ids =
      CorpusFieldStats::QueryIds(stats_->body_stats, tokens);
  std::vector<int32_t> caption_ids =
      CorpusFieldStats::QueryIds(stats_->caption_stats, tokens);
  std::vector<int32_t> title_ids =
      CorpusFieldStats::QueryIds(stats_->title_stats, tokens);
  double qlen = std::max<double>(1.0, static_cast<double>(tokens.size()));

  // One similarity per "semantic space".
  return {
      TfIdfCosine(stats_->body_stats, body_ids, table.body),
      static_cast<double>(vecmath::CosineSimilarity(
          query_embedding.data(), table_embeddings_.Row(table_index),
          table_embeddings_.cols())),
      stats_->body_stats.Bm25(body_ids, table.body) / qlen,
      stats_->caption_stats.Bm25(caption_ids, table.caption) / qlen,
      stats_->title_stats.Bm25(title_ids, table.title) / qlen,
      std::log1p(qlen),
  };
}

Result<std::unique_ptr<TcsSearcher>> TcsSearcher::Build(
    std::shared_ptr<const CorpusFieldStats> stats,
    std::shared_ptr<const embed::SemanticEncoder> encoder,
    const table::Federation& federation,
    const std::vector<TrainingPair>& training, TcsOptions options) {
  if (stats == nullptr || encoder == nullptr) {
    return Status::InvalidArgument("tcs: null stats/encoder");
  }
  if (training.empty()) return Status::InvalidArgument("tcs: no training pairs");

  std::unique_ptr<TcsSearcher> searcher(
      new TcsSearcher(std::move(stats), std::move(encoder), options));

  // Table-level embeddings of the consolidated text (truncated).
  text::Tokenizer tokenizer = BaselineTokenizer();
  searcher->table_embeddings_ =
      vecmath::Matrix(federation.size(), searcher->encoder_->dim());
  for (size_t t = 0; t < federation.size(); ++t) {
    std::vector<std::string> tokens =
        tokenizer.Tokenize(federation.relation(t).ConsolidatedText());
    if (tokens.size() > options.table_embedding_tokens) {
      tokens.resize(options.table_embedding_tokens);
    }
    searcher->table_embeddings_.SetRow(
        t, searcher->encoder_->EncodeTokens(tokens));
  }

  ml::RegressionData data;
  for (const TrainingPair& pair : training) {
    if (pair.relation >= searcher->stats_->tables.size()) {
      return Status::InvalidArgument("tcs: training pair out of range");
    }
    std::vector<std::string> tokens = tokenizer.Tokenize(pair.query);
    vecmath::Vec query_embedding = searcher->encoder_->EncodeTokens(tokens);
    MIRA_RETURN_NOT_OK(
        data.Add(searcher->Features(tokens, query_embedding, pair.relation),
                 static_cast<double>(pair.grade)));
  }
  MIRA_ASSIGN_OR_RETURN(searcher->forest_,
                        ml::RandomForest::Fit(data, options.forest));
  return searcher;
}

Result<discovery::Ranking> TcsSearcher::Search(
    const std::string& query,
    const discovery::DiscoveryOptions& options) const {
  text::Tokenizer tokenizer = BaselineTokenizer();
  std::vector<std::string> tokens = tokenizer.Tokenize(query);
  vecmath::Vec query_embedding = encoder_->EncodeTokens(tokens);

  discovery::Ranking ranking;
  ranking.reserve(stats_->tables.size());
  for (size_t t = 0; t < stats_->tables.size(); ++t) {
    double score = forest_.Predict(Features(tokens, query_embedding, t));
    ranking.push_back({static_cast<table::RelationId>(t),
                       static_cast<float>(score)});
  }
  discovery::SortTopK(&ranking, options.top_k);
  return ranking;
}

}  // namespace mira::baselines
