#include "baselines/ws.h"

#include <algorithm>
#include <cmath>

namespace mira::baselines {

namespace {

// Count of query tokens present in a field bag (per-field hit counts are the
// classic hand-crafted signals).
double HitCount(const text::CorpusStats& stats, const text::TermBag& bag,
                const std::vector<std::string>& tokens) {
  double hits = 0.0;
  for (const auto& token : tokens) {
    int32_t id = stats.vocab().GetId(token);
    if (id >= 0 && bag.Count(id) > 0) hits += 1.0;
  }
  return hits;
}

}  // namespace

std::vector<double> WsSearcher::Features(const CorpusFieldStats& stats,
                                         const std::vector<std::string>& tokens,
                                         size_t table_index) {
  const TableFieldData& table = stats.tables[table_index];
  std::vector<int32_t> body_ids =
      CorpusFieldStats::QueryIds(stats.body_stats, tokens);
  std::vector<int32_t> title_ids =
      CorpusFieldStats::QueryIds(stats.title_stats, tokens);
  double qlen = std::max<double>(1.0, static_cast<double>(tokens.size()));
  return {
      stats.body_stats.Bm25(body_ids, table.body) / qlen,
      stats.body_stats.DirichletLogLikelihood(body_ids, table.body, 300.0) / qlen,
      stats.title_stats.DirichletLogLikelihood(title_ids, table.title, 300.0) / qlen,
      HitCount(stats.title_stats, table.title, tokens) / qlen,
      HitCount(stats.caption_stats, table.caption, tokens) / qlen,
      HitCount(stats.schema_stats, table.schema, tokens) / qlen,
      std::log1p(static_cast<double>(table.num_rows)),
      std::log1p(static_cast<double>(table.num_cols)),
      table.numeric_fraction,
      std::log1p(qlen),
  };
}

WsSearcher::WsSearcher(std::shared_ptr<const CorpusFieldStats> stats,
                       ml::LinearRegression model)
    : stats_(std::move(stats)), model_(std::move(model)) {}

Result<std::unique_ptr<WsSearcher>> WsSearcher::Build(
    std::shared_ptr<const CorpusFieldStats> stats,
    const std::vector<TrainingPair>& training) {
  if (stats == nullptr) return Status::InvalidArgument("ws: null stats");
  if (training.empty()) return Status::InvalidArgument("ws: no training pairs");

  text::Tokenizer tokenizer = BaselineTokenizer();
  ml::RegressionData data;
  for (const TrainingPair& pair : training) {
    if (pair.relation >= stats->tables.size()) {
      return Status::InvalidArgument("ws: training pair out of range");
    }
    std::vector<std::string> tokens = tokenizer.Tokenize(pair.query);
    MIRA_RETURN_NOT_OK(data.Add(Features(*stats, tokens, pair.relation),
                                static_cast<double>(pair.grade)));
  }
  MIRA_ASSIGN_OR_RETURN(ml::LinearRegression model,
                        ml::LinearRegression::Fit(data));
  return std::unique_ptr<WsSearcher>(
      new WsSearcher(std::move(stats), std::move(model)));
}

Result<discovery::Ranking> WsSearcher::Search(
    const std::string& query,
    const discovery::DiscoveryOptions& options) const {
  text::Tokenizer tokenizer = BaselineTokenizer();
  std::vector<std::string> tokens = tokenizer.Tokenize(query);
  discovery::Ranking ranking;
  ranking.reserve(stats_->tables.size());
  for (size_t t = 0; t < stats_->tables.size(); ++t) {
    double score = model_.Predict(Features(*stats_, tokens, t));
    ranking.push_back({static_cast<table::RelationId>(t),
                       static_cast<float>(score)});
  }
  discovery::SortTopK(&ranking, options.top_k);
  return ranking;
}

}  // namespace mira::baselines
