#ifndef MIRA_DISCOVERY_CORPUS_EMBEDDINGS_H_
#define MIRA_DISCOVERY_CORPUS_EMBEDDINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/threadpool.h"
#include "embed/encoder.h"
#include "table/relation.h"
#include "vecmath/matrix.h"

namespace mira::discovery {

/// Which cell of which relation a corpus vector came from.
struct CellRef {
  table::RelationId relation = 0;
  uint32_t row = 0;
  uint32_t col = 0;
};

/// The semantic representation of a federation (§4): one embedding per
/// attribute value, computed query-independently and shared by all three
/// search methods. Vectors are L2-normalized (cosine = dot).
/// Repeated values embed identically, so each distinct vector is stored once
/// and every cell maps to its row. Build is the one place that decides which
/// cells are repeats; ANNS indexes the rows as they are.
struct CorpusEmbeddings {
  /// One row per distinct cell vector (distinct by exact bytes), in the
  /// order of each vector's first cell.
  vecmath::Matrix rows;
  /// Provenance of each cell.
  std::vector<CellRef> refs;
  /// cell_rows[i] = the row of cell i's vector.
  std::vector<uint32_t> cell_rows;
  /// Number of embedded cells per relation (indexed by RelationId).
  std::vector<uint32_t> cells_per_relation;
  size_t num_relations = 0;

  size_t num_cells() const { return refs.size(); }
  size_t num_rows() const { return rows.rows(); }
  size_t dim() const { return rows.cols(); }
  /// Every cell's vector, in cell order: the one accessor of a cell's vector.
  vecmath::RowsView CellVectors() const { return {rows, cell_rows}; }

  /// Embeds every attribute value of every relation, as one batch: each
  /// distinct cell text, token and pseudo-random direction is computed once
  /// (SemanticEncoder::PrepareBatch), into one row per text. Texts that
  /// embed to the same bytes ("Foo" and "foo" tokenize alike) then share
  /// one row. Every embedding phase runs on `pool` when one is given and
  /// takes no lock; the batch's token vectors then go to the encoder's cache
  /// in one locked insert. Cell for cell, the result is bit-identical to
  /// NormalizeInPlace(encoder.EncodeText(cell)).
  [[nodiscard]] static Result<CorpusEmbeddings> Build(const table::Federation& federation,
                                        const embed::SemanticEncoder& encoder,
                                        ThreadPool* pool = nullptr);

  /// Persists the embeddings to a binary file, so a federation can be
  /// re-opened without embedding it again (the derived ANN/cluster
  /// structures are rebuilt). Embedding is most of an ExS-only open; with
  /// ANNS or CTS the index builds dominate.
  ///
  /// Crash-safe: the bytes go to `path + ".tmp"`, are fsync'd, and the tmp
  /// file is atomically renamed over `path` — a crash or failure mid-write
  /// never clobbers an existing good file (the interrupted tmp is left
  /// behind for post-mortem). The header carries checksums of itself and of
  /// the payload so Load can tell corruption from format drift.
  [[nodiscard]] Status Save(const std::string& path) const;

  /// Restores embeddings written by Save(). Distinguishes failure classes:
  /// a file that cannot be opened is kIoError (possibly transient); one
  /// that opens but is truncated, corrupted, or checksum-mismatched is
  /// kDataLoss (retrying cannot help — re-embed or restore from backup).
  /// So is a file whose checksums hold but whose shape does not: a payload
  /// size that disagrees with the file's, or a cell of a relation or a row
  /// out of range. The per-relation counts are derived from the cells.
  [[nodiscard]] static Result<CorpusEmbeddings> Load(const std::string& path);

  /// Load() wrapped in RetryPolicy: transient errors (kIoError,
  /// kUnavailable) retry with jittered exponential backoff; kDataLoss and
  /// other typed failures return immediately. `control` (nullable) bounds
  /// the whole loop.
  [[nodiscard]] static Result<CorpusEmbeddings> LoadWithRetry(
      const std::string& path, const RetryOptions& retry = {},
      const QueryControl* control = nullptr);
};

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_CORPUS_EMBEDDINGS_H_
