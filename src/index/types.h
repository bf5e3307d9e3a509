#ifndef MIRA_INDEX_TYPES_H_
#define MIRA_INDEX_TYPES_H_

#include <cstddef>

#include "common/deadline.h"

namespace mira::index {

// The vocabulary FlatIndex and HnswIndex share. Both follow one lifecycle:
// Add() every vector, Build() exactly once, then Search(). Search returns
// *similarities* under the index metric (higher = closer; for cosine the
// cosine itself), so callers compare them to the paper's threshold h
// directly.

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
/// the storage-reduction experiments report.
struct MemoryStats {
  size_t vectors_bytes = 0;   ///< Raw float rows.
  size_t ids_bytes = 0;       ///< External id arrays.
  size_t graph_bytes = 0;     ///< HNSW link lists.
  size_t codes_bytes = 0;     ///< PQ codes (payload: grows with n).
  size_t codebook_bytes = 0;  ///< PQ codebook floats (model: fixed per index).
  size_t total() const {
    return vectors_bytes + ids_bytes + graph_bytes + codes_bytes +
           codebook_bytes;
  }
};

}  // namespace mira::index

#endif  // MIRA_INDEX_TYPES_H_
