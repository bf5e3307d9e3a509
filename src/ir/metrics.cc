#include "ir/metrics.h"

#include <algorithm>
#include <cmath>

namespace mira::ir {

void Qrels::Add(QueryId query, DocId doc, int grade) {
  auto& docs = judgments_[query];
  auto it = docs.find(doc);
  if (it == docs.end()) {
    docs.emplace(doc, grade);
    ++num_pairs_;
  } else {
    it->second = grade;
  }
}

int Qrels::Grade(QueryId query, DocId doc) const {
  auto q = judgments_.find(query);
  if (q == judgments_.end()) return 0;
  auto d = q->second.find(doc);
  return d == q->second.end() ? 0 : d->second;
}

size_t Qrels::NumRelevant(QueryId query) const {
  auto q = judgments_.find(query);
  if (q == judgments_.end()) return 0;
  size_t count = 0;
  for (const auto& [_, grade] : q->second) {
    if (grade >= 1) ++count;
  }
  return count;
}

std::vector<int> Qrels::GradesFor(QueryId query) const {
  std::vector<int> grades;
  auto q = judgments_.find(query);
  if (q == judgments_.end()) return grades;
  grades.reserve(q->second.size());
  for (const auto& [_, grade] : q->second) grades.push_back(grade);
  return grades;
}

std::vector<std::pair<DocId, int>> Qrels::JudgmentsFor(QueryId query) const {
  std::vector<std::pair<DocId, int>> out;
  auto q = judgments_.find(query);
  if (q == judgments_.end()) return out;
  out.assign(q->second.begin(), q->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<QueryId> Qrels::Queries() const {
  std::vector<QueryId> out;
  out.reserve(judgments_.size());
  for (const auto& [query, _] : judgments_) out.push_back(query);
  std::sort(out.begin(), out.end());
  return out;
}

double ReciprocalRank(const std::vector<DocId>& ranking, const Qrels& qrels,
                      QueryId query) {
  for (size_t i = 0; i < ranking.size(); ++i) {
    if (qrels.Grade(query, ranking[i]) >= 1) {
      return 1.0 / static_cast<double>(i + 1);
    }
  }
  return 0.0;
}

double AveragePrecision(const std::vector<DocId>& ranking, const Qrels& qrels,
                        QueryId query) {
  size_t total_relevant = qrels.NumRelevant(query);
  if (total_relevant == 0) return 0.0;
  size_t hits = 0;
  double sum = 0.0;
  for (size_t i = 0; i < ranking.size(); ++i) {
    if (qrels.Grade(query, ranking[i]) >= 1) {
      ++hits;
      sum += static_cast<double>(hits) / static_cast<double>(i + 1);
    }
  }
  return sum / static_cast<double>(total_relevant);
}

double NdcgAt(const std::vector<DocId>& ranking, const Qrels& qrels,
              QueryId query, size_t k) {
  double dcg = 0.0;
  size_t depth = std::min(k, ranking.size());
  for (size_t i = 0; i < depth; ++i) {
    int grade = qrels.Grade(query, ranking[i]);
    if (grade > 0) {
      dcg += (std::pow(2.0, grade) - 1.0) / std::log2(static_cast<double>(i) + 2.0);
    }
  }
  std::vector<int> grades = qrels.GradesFor(query);
  std::sort(grades.begin(), grades.end(), std::greater<>());
  double idcg = 0.0;
  for (size_t i = 0; i < std::min(k, grades.size()); ++i) {
    if (grades[i] > 0) {
      idcg += (std::pow(2.0, grades[i]) - 1.0) /
              std::log2(static_cast<double>(i) + 2.0);
    }
  }
  return idcg > 0.0 ? dcg / idcg : 0.0;
}

EvalResult Evaluate(const Qrels& qrels,
                    const std::unordered_map<QueryId, std::vector<DocId>>& run,
                    const std::vector<size_t>& ndcg_cutoffs) {
  EvalResult result;
  // Every cutoff has an entry, 0 when no query has a judged positive.
  for (size_t k : ndcg_cutoffs) result.ndcg[k] = 0.0;
  static const std::vector<DocId> kEmpty;
  std::vector<QueryId> queries = qrels.Queries();
  for (QueryId query : queries) {
    auto it = run.find(query);
    const std::vector<DocId>& ranking = it == run.end() ? kEmpty : it->second;
    result.map += AveragePrecision(ranking, qrels, query);
    result.mrr += ReciprocalRank(ranking, qrels, query);
    for (size_t k : ndcg_cutoffs) {
      result.ndcg[k] += NdcgAt(ranking, qrels, query, k);
    }
  }
  result.num_queries = queries.size();
  if (!queries.empty()) {
    double n = static_cast<double>(queries.size());
    result.map /= n;
    result.mrr /= n;
    for (auto& [_, value] : result.ndcg) value /= n;
  }
  return result;
}

}  // namespace mira::ir
