#ifndef MIRA_DISCOVERY_TYPES_H_
#define MIRA_DISCOVERY_TYPES_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "index/types.h"
#include "table/relation.h"
#include "vecmath/top_k.h"

namespace mira::discovery {

/// Per-query knobs shared by all search methods: the paper's top-k and
/// relatedness threshold h (§3: related iff match(F, q) >= h).
struct DiscoveryOptions {
  size_t top_k = 20;
  /// Minimum relation score; relations below are filtered out. The paper's
  /// cosine scores live in [-1, 1]; 0 disables filtering in practice.
  float threshold = -1.0f;
  /// Deadline + cancellation budget for the query. Default-constructed =
  /// unbounded, which keeps the uncontrolled path bit-identical to builds
  /// without this field. See docs/ROBUSTNESS.md for how the engine degrades
  /// when the budget fires mid-query.
  QueryControl control;
};

/// One discovered dataset with its match score.
struct DiscoveryHit {
  table::RelationId relation = 0;
  float score = 0.f;
};

/// Ranked list of related datasets, best first.
///
/// Grew out of `std::vector<DiscoveryHit>` when deadlines landed; it still
/// exposes the vector surface (iteration, indexing, size/empty, push_back)
/// so ranking consumers read unchanged, plus two quality flags:
///  - `degraded`: the engine reduced effort to meet the budget (lower ef,
///    fewer probed clusters, or a fallback method). Scores are real but the
///    ranking may differ from an unbounded run.
///  - `partial`: stronger — the search did not cover the whole corpus, so
///    relations may be missing entirely (CTS stopped probing clusters).
/// `partial` implies `degraded` on every path the engine produces.
struct Ranking {
  std::vector<DiscoveryHit> hits;
  bool degraded = false;
  bool partial = false;

  Ranking() = default;
  Ranking(std::initializer_list<DiscoveryHit> init) : hits(init) {}

  // Vector facade, const + mutable, so existing consumers compile as-is.
  using value_type = DiscoveryHit;
  using iterator = std::vector<DiscoveryHit>::iterator;
  using const_iterator = std::vector<DiscoveryHit>::const_iterator;
  iterator begin() { return hits.begin(); }
  iterator end() { return hits.end(); }
  const_iterator begin() const { return hits.begin(); }
  const_iterator end() const { return hits.end(); }
  size_t size() const { return hits.size(); }
  bool empty() const { return hits.empty(); }
  DiscoveryHit& operator[](size_t i) { return hits[i]; }
  const DiscoveryHit& operator[](size_t i) const { return hits[i]; }
  DiscoveryHit& front() { return hits.front(); }
  const DiscoveryHit& front() const { return hits.front(); }
  DiscoveryHit& back() { return hits.back(); }
  const DiscoveryHit& back() const { return hits.back(); }
  void push_back(const DiscoveryHit& hit) { hits.push_back(hit); }
  void reserve(size_t n) { hits.reserve(n); }
  void resize(size_t n) { hits.resize(n); }
  void clear() { hits.clear(); }
};

/// Resident-byte breakdown of a searcher's cell storage, for the
/// `mira.mem.{anns,cts}.*` gauges: the per-cell bookkeeping next to the
/// vector index, and the index's own MemoryStats.
struct CollectionMemoryStats {
  size_t points_bytes = 0;  ///< Bookkeeping beside the index (per cell, per row).
  index::MemoryStats index;  ///< Vector-index breakdown.
  size_t total() const { return points_bytes + index.total(); }
};

/// Common interface of the three semantic search methods (and of the
/// baseline rankers, which adapt to it for the evaluation harness).
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Returns the top-k relations related to the keyword query. When
  /// `options.control` is active, implementations honor it cooperatively:
  /// they either self-degrade (and say so via the ranking flags) or return
  /// kDeadlineExceeded/kCancelled.
  [[nodiscard]] virtual Result<Ranking> Search(const std::string& query,
                                 const DiscoveryOptions& options) const = 0;

  /// Short method tag ("ExS", "ANNS", "CTS", ...).
  virtual std::string name() const = 0;
};

/// The ranking order of every search path: higher score first, then lower
/// relation id. Relation ids are unique within a ranking, so this is a
/// strict total order (-0.0 and +0.0 compare equal and fall to the id).
inline bool RanksBefore(const DiscoveryHit& a, const DiscoveryHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.relation < b.relation;
}

/// Keeps the k best hits of an unsorted ranking, best-first: the first k of
/// a full sort, found by selecting before sorting (vecmath::SortTopK).
inline void SortTopK(Ranking* ranking, size_t k) {
  vecmath::SortTopK(&ranking->hits, k);
}

/// Orders an unsorted ranking and truncates it to at most top_k entries
/// with score >= threshold.
void ApplyThresholdAndTopK(Ranking* ranking, const DiscoveryOptions& options);

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_TYPES_H_
