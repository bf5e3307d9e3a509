#ifndef MIRA_VECMATH_TOP_K_H_
#define MIRA_VECMATH_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace mira::vecmath {

/// One retrieval hit: an item id with its score. Ordering helpers sort by
/// descending score with ascending id as a deterministic tie-break.
struct ScoredId {
  uint64_t id = 0;
  float score = 0.f;

  friend bool operator==(const ScoredId& a, const ScoredId& b) {
    return a.id == b.id && a.score == b.score;
  }
};

/// `a` ranks before `b` (higher score first, then lower id).
inline bool RanksBefore(const ScoredId& a, const ScoredId& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Bounded collector of the k best-scoring items (max-score semantics).
/// Push is O(log k); Take returns items best-first.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Push(uint64_t id, float score) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push(ScoredId{id, score});
    } else if (RanksBefore(ScoredId{id, score}, heap_.top())) {
      heap_.pop();
      heap_.push(ScoredId{id, score});
    }
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// The currently-worst retained score; only meaningful when full().
  float WorstScore() const { return heap_.empty() ? 0.f : heap_.top().score; }
  bool full() const { return heap_.size() == k_; }

  /// Empties the collector, returning hits best-first.
  std::vector<ScoredId> Take() {
    std::vector<ScoredId> out(heap_.size());
    for (size_t i = heap_.size(); i > 0; --i) {
      out[i - 1] = heap_.top();
      heap_.pop();
    }
    return out;
  }

 private:
  struct WorstFirst {
    bool operator()(const ScoredId& a, const ScoredId& b) const {
      // priority_queue keeps the *largest* under this comparator on top; we
      // want the worst-ranked on top so it can be evicted.
      return RanksBefore(a, b);
    }
  };

  size_t k_;
  std::priority_queue<ScoredId, std::vector<ScoredId>, WorstFirst> heap_;
};

/// Keeps the k items that rank first under their type's `RanksBefore` (found
/// by argument), best-first: nth_element, then a sort of only those. Under a
/// strict total order that is the first k of a full sort, and for ScoredId
/// what TopK(k) takes after every item is pushed.
template <typename T>
void SortTopK(std::vector<T>* items, size_t k) {
  auto before = [](const T& a, const T& b) { return RanksBefore(a, b); };
  if (k < items->size()) {
    const auto kth = items->begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(items->begin(), kth, items->end(), before);
    items->erase(kth, items->end());
  }
  std::sort(items->begin(), items->end(), before);
}

}  // namespace mira::vecmath

#endif  // MIRA_VECMATH_TOP_K_H_
