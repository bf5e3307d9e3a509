#include "baselines/mdr.h"

#include "common/logging.h"

namespace mira::baselines {

MdrSearcher::MdrSearcher(std::shared_ptr<const CorpusFieldStats> stats,
                         MdrOptions options)
    : stats_(std::move(stats)), options_(options) {
  MIRA_CHECK(stats_ != nullptr);
}

Result<discovery::Ranking> MdrSearcher::Search(
    const std::string& query,
    const discovery::DiscoveryOptions& options) const {
  text::Tokenizer tokenizer = BaselineTokenizer();
  std::vector<std::string> tokens = tokenizer.Tokenize(query);
  if (tokens.empty()) return discovery::Ranking{};

  std::vector<int32_t> title_ids =
      CorpusFieldStats::QueryIds(stats_->title_stats, tokens);
  std::vector<int32_t> section_ids =
      CorpusFieldStats::QueryIds(stats_->section_stats, tokens);
  std::vector<int32_t> caption_ids =
      CorpusFieldStats::QueryIds(stats_->caption_stats, tokens);
  std::vector<int32_t> schema_ids =
      CorpusFieldStats::QueryIds(stats_->schema_stats, tokens);
  std::vector<int32_t> body_ids =
      CorpusFieldStats::QueryIds(stats_->body_stats, tokens);

  discovery::Ranking ranking;
  ranking.reserve(stats_->tables.size());
  for (size_t t = 0; t < stats_->tables.size(); ++t) {
    const TableFieldData& table = stats_->tables[t];
    double score =
        options_.w_title * stats_->title_stats.DirichletLogLikelihood(
                               title_ids, table.title, options_.mu) +
        options_.w_section * stats_->section_stats.DirichletLogLikelihood(
                                 section_ids, table.section, options_.mu) +
        options_.w_caption * stats_->caption_stats.DirichletLogLikelihood(
                                 caption_ids, table.caption, options_.mu) +
        options_.w_schema * stats_->schema_stats.DirichletLogLikelihood(
                                schema_ids, table.schema, options_.mu) +
        options_.w_body * stats_->body_stats.DirichletLogLikelihood(
                              body_ids, table.body, options_.mu);
    // Normalize by query length so scores are comparable across queries
    // (thresholding semantics), then squash to a bounded range.
    score /= static_cast<double>(tokens.size());
    ranking.push_back({static_cast<table::RelationId>(t),
                       static_cast<float>(score)});
  }
  // The threshold h is defined on cosine-like scores; for the lexical
  // baselines only top-k truncation applies.
  discovery::SortTopK(&ranking, options.top_k);
  return ranking;
}

}  // namespace mira::baselines
