#ifndef MIRA_INDEX_FLAT_INDEX_H_
#define MIRA_INDEX_FLAT_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/types.h"
#include "obs/trace.h"
#include "vecmath/distance.h"
#include "vecmath/matrix.h"
#include "vecmath/simd.h"
#include "vecmath/top_k.h"
#include "vecmath/vector_ops.h"

namespace mira::index {

/// The blocked exact scan of FlatIndex::Search, shared with CTS's cluster
/// probes: scores the `count` rows at `rows` against `query` (a plain dot on
/// pre-normalized rows for cosine, negated squared L2 for kL2) and calls
/// `push(offset, similarity)` per row. A row's bits depend on its offset in
/// the call (SIMD tiers score row groups and a tail differently), so a row
/// set must always be scanned from the same first row.
template <typename Push>
[[nodiscard]] Status ScanRows(const float* query, const float* rows,
                              size_t count, size_t dim, vecmath::Metric metric,
                              const QueryControl* control, Push&& push) {
  obs::TraceSpan span("flat.scan");
  span.AddCounter("rows_scanned", static_cast<int64_t>(count));
  // A stack block keeps the score spill out of the heap; budget checks are
  // amortized over whole blocks (4096 rows between checks).
  constexpr size_t kBlock = 256;
  constexpr size_t kControlStride = 16;
  float scores[kBlock];
  size_t block_idx = 0;
  for (size_t start = 0; start < count; start += kBlock, ++block_idx) {
    if (control != nullptr && block_idx % kControlStride == 0) {
      MIRA_RETURN_NOT_OK(control->Check("flat.scan"));
    }
    const size_t n = std::min(kBlock, count - start);
    const float* block = rows + start * dim;
    if (metric == vecmath::Metric::kL2) {
      vecmath::SquaredL2Batch(query, block, n, dim, scores);
      for (size_t j = 0; j < n; ++j) push(start + j, -scores[j]);
    } else {
      vecmath::DotBatch(query, block, n, dim, scores);
      for (size_t j = 0; j < n; ++j) push(start + j, scores[j]);
    }
  }
  return Status::OK();
}

/// Exact brute-force index: the storage backend of Exhaustive Search (§4.1)
/// and the ground-truth oracle for ANN recall tests.
class FlatIndex {
 public:
  explicit FlatIndex(vecmath::Metric metric = vecmath::Metric::kCosine);

  /// Registers a vector under an external id. Ids must be unique; dimensions
  /// must agree across calls. Fails after Build().
  [[nodiscard]] Status Add(uint64_t id, const vecmath::Vec& vector);
  /// Capacity hint: pre-sizes storage for about this many Add() calls.
  void Reserve(size_t expected_rows);
  [[nodiscard]] Status Build();
  /// Exact k-nearest search. Fails before Build().
  [[nodiscard]] Result<std::vector<vecmath::ScoredId>> Search(
      const vecmath::Vec& query, const SearchParams& params) const;

  size_t size() const { return ids_.size(); }
  size_t dim() const { return vectors_.cols(); }
  vecmath::Metric metric() const { return metric_; }
  std::string name() const { return "flat"; }
  MemoryStats MemoryUsage() const;

 private:
  vecmath::Metric metric_;
  vecmath::Matrix vectors_;
  std::vector<uint64_t> ids_;
  bool built_ = false;
};

}  // namespace mira::index

#endif  // MIRA_INDEX_FLAT_INDEX_H_
