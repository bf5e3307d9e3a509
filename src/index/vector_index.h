#ifndef MIRA_INDEX_VECTOR_INDEX_H_
#define MIRA_INDEX_VECTOR_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"
#include "vecmath/distance.h"
#include "vecmath/top_k.h"
#include "vecmath/vector_ops.h"

namespace mira::index {

/// Per-query knobs.
struct SearchParams {
  /// Number of results requested.
  size_t k = 10;
  /// Beam width for graph indexes (HNSW ef); 0 means the index default.
  size_t ef = 0;
  /// Optional deadline/cancellation budget, not owned; null = unbounded.
  /// Indexes check it cooperatively at amortized intervals (every N scan
  /// blocks / beam pops, never per cell) and return kDeadlineExceeded or
  /// kCancelled from Search() when it fires mid-scan.
  const QueryControl* control = nullptr;
};

/// Byte-level breakdown of an index's resident search structures. Feeds the
/// `mira.mem.*` resource gauges (see docs/OBSERVABILITY.md); total() is what
/// the storage-reduction experiments report as MemoryBytes().
struct MemoryStats {
  size_t vectors_bytes = 0;   ///< Raw float rows.
  size_t ids_bytes = 0;       ///< External id arrays.
  size_t graph_bytes = 0;     ///< HNSW link lists.
  size_t codes_bytes = 0;     ///< Packed PQ codes (payload: grows with n).
  size_t codebook_bytes = 0;  ///< PQ codebook floats (model: fixed per index).
  size_t total() const {
    return vectors_bytes + ids_bytes + graph_bytes + codes_bytes +
           codebook_bytes;
  }
};

/// Common interface of MIRA's vector indexes (flat, PQ-flat, HNSW).
///
/// Lifecycle: Add() all vectors, then Build() exactly once, then Search().
/// Scores returned by Search are *similarities* under the index metric
/// (higher = closer; for cosine the actual cosine value), so callers can
/// compare them against the paper's threshold h directly.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Registers a vector under an external id. Ids must be unique; dimensions
  /// must agree across calls. Fails after Build().
  [[nodiscard]] virtual Status Add(uint64_t id, const vecmath::Vec& vector) = 0;

  /// Capacity hint: the caller expects about this many Add() calls in total.
  /// Lets implementations pre-allocate storage instead of reallocating per
  /// row. Optional — the default is a no-op.
  virtual void Reserve(size_t expected_rows) { (void)expected_rows; }

  /// Finalizes the index (graph construction, quantizer training, ...).
  [[nodiscard]] virtual Status Build() = 0;

  /// k-nearest search. Fails before Build().
  [[nodiscard]] virtual Result<std::vector<vecmath::ScoredId>> Search(
      const vecmath::Vec& query, const SearchParams& params) const = 0;

  virtual size_t size() const = 0;
  virtual size_t dim() const = 0;
  virtual vecmath::Metric metric() const = 0;
  virtual std::string name() const = 0;

  /// Approximate resident bytes of the search structures, broken down by
  /// what holds them (resource-accounting gauges read this).
  virtual MemoryStats MemoryUsage() const = 0;

  /// Approximate resident bytes of the search structures (used by the
  /// storage-reduction experiments). Sum of the MemoryUsage() breakdown.
  size_t MemoryBytes() const { return MemoryUsage().total(); }
};

}  // namespace mira::index

#endif  // MIRA_INDEX_VECTOR_INDEX_H_
