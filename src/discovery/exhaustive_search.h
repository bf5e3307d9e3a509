#ifndef MIRA_DISCOVERY_EXHAUSTIVE_SEARCH_H_
#define MIRA_DISCOVERY_EXHAUSTIVE_SEARCH_H_

#include <memory>
#include <string>

#include "common/threadpool.h"
#include "discovery/corpus_embeddings.h"
#include "discovery/types.h"
#include "embed/encoder.h"
#include "vecmath/matrix.h"

namespace mira::discovery {

struct ExsOptions {
  /// Algorithm 1 as published embeds every attribute value *inside the query
  /// loop* ("Embed v using a sentence transformer and obtain w") — the paper
  /// explicitly notes that storing the vectors in the vector database is the
  /// fundamental difference of ANNS (§4.2). The faithful default therefore
  /// re-encodes cells per query, which is what makes ExS orders of magnitude
  /// slower than ANNS/CTS in the paper's Figure 3. Set true to reuse the
  /// pre-built corpus embeddings instead (the "ExS-cached" ablation;
  /// identical scores, index-assisted speed).
  bool reuse_corpus_embeddings = false;
  /// Worker threads for the faithful per-query scan (1 = serial, the
  /// paper's setup; >1 partitions relations across a thread pool — an
  /// engineering extension that preserves scores exactly). The cached scan
  /// is one dot per relation and always runs on the calling thread, so it
  /// ignores this.
  size_t num_threads = 1;
};

/// Exhaustive Search — Algorithm 1 (§4.1).
///
/// The query embedding is compared against *every* cell embedding of every
/// relation; a relation's score is the average cosine similarity over all its
/// cells (avg_s). Thorough, query-time O(total cells), and — as the paper's
/// §5.3 case study shows — prone to diluting a relation's relevance with its
/// unrelated attributes.
///
/// The threshold applies only after averaging and the dot product is
/// linear, so with cached embeddings avg_s(r) = q·m_r, where m_r is the mean
/// of r's normalized cell vectors: the cached scan is one dot per relation
/// against a matrix of means built at construction.
///
/// There is no partial answer: an active DiscoveryOptions::control that fires
/// before the scan completes makes Search return kDeadlineExceeded or
/// kCancelled. The cached scan checks it once, before its single batch; the
/// faithful scan checks it per relation (per chunk of relations on a pool).
class ExhaustiveSearcher final : public Searcher {
 public:
  /// Shares ownership of pre-built corpus embeddings. `federation` must
  /// outlive the searcher unless reuse_corpus_embeddings is true.
  ExhaustiveSearcher(const table::Federation* federation,
                     std::shared_ptr<const CorpusEmbeddings> corpus,
                     std::shared_ptr<const embed::SemanticEncoder> encoder,
                     ExsOptions options = {});

  [[nodiscard]] Result<Ranking> Search(const std::string& query,
                         const DiscoveryOptions& options) const override;
  std::string name() const override { return "ExS"; }

  /// The faithful scan's pool (null when num_threads <= 1 or embeddings are
  /// reused). Resource-accounting gauges read its queue stats.
  const ThreadPool* pool() const { return pool_.get(); }

 private:
  const table::Federation* federation_;
  std::shared_ptr<const CorpusEmbeddings> corpus_;
  std::shared_ptr<const embed::SemanticEncoder> encoder_;
  ExsOptions options_;
  /// Present only on the faithful path with options_.num_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
  /// num_relations x dim mean cell vectors; filled only when
  /// options_.reuse_corpus_embeddings is set.
  vecmath::Matrix relation_means_;
};

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_EXHAUSTIVE_SEARCH_H_
