#ifndef MIRA_DISCOVERY_CORPUS_EMBEDDINGS_H_
#define MIRA_DISCOVERY_CORPUS_EMBEDDINGS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/threadpool.h"
#include "discovery/types.h"
#include "embed/encoder.h"
#include "table/relation.h"
#include "vecmath/matrix.h"
#include "vecmath/top_k.h"

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
/// cells are repeats. The row -> cells posting list is the one map back from
/// a row to its cells: ANNS indexes the rows as they are, CTS clusters them
/// (each weighted by its cell count) and holds each in its one cluster, and
/// both expand a retrieved row through it (RelationMeans).
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
  /// The posting list, CSR over rows: row d's cells, ascending, are
  /// row_cells[row_cell_begin[d] .. row_cell_begin[d + 1]). Like
  /// cells_per_relation, Build and Load derive it from cell_rows; it is not
  /// saved.
  std::vector<uint32_t> row_cell_begin;
  std::vector<uint32_t> row_cells;
  size_t num_relations = 0;

  size_t num_cells() const { return refs.size(); }
  size_t num_rows() const { return rows.rows(); }
  size_t dim() const { return rows.cols(); }
  /// Every cell's vector, in cell order: the one accessor of a cell's vector.
  vecmath::RowsView CellVectors() const { return {rows, cell_rows}; }
  /// Row d's cells, ascending: [RowCellsBegin(d), RowCellsEnd(d)).
  const uint32_t* RowCellsBegin(size_t d) const {
    return row_cells.data() + row_cell_begin[d];
  }
  const uint32_t* RowCellsEnd(size_t d) const {
    return row_cells.data() + row_cell_begin[d + 1];
  }
  uint32_t RowCellCount(size_t d) const {
    return row_cell_begin[d + 1] - row_cell_begin[d];
  }

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
  /// out of range. The per-relation counts and the posting list are derived
  /// from the cells.
  [[nodiscard]] static Result<CorpusEmbeddings> Load(const std::string& path);

  /// Load() wrapped in RetryPolicy: transient errors (kIoError,
  /// kUnavailable) retry with jittered exponential backoff; kDataLoss and
  /// other typed failures return immediately. `control` (nullable) bounds
  /// the whole loop.
  [[nodiscard]] static Result<CorpusEmbeddings> LoadWithRetry(
      const std::string& path, const RetryOptions& retry = {},
      const QueryControl* control = nullptr);
};

/// Step 2 of Algorithms 2 and 3: each relation's score is the mean
/// similarity of its retrieved cells. A hit is a store row and stands for
/// its cells, taken in ascending order; each taken cell adds the hit's score
/// to its relation's sum. Sums accumulate in hit order, then cell order.
class RelationMeans {
 public:
  explicit RelationMeans(const CorpusEmbeddings& corpus)
      : corpus_(corpus), sums_(corpus.num_relations) {}

  /// Takes the cells of each hit (ids are store rows), hit by hit, until
  /// `limit` cells are taken; returns how many were.
  size_t Add(const std::vector<vecmath::ScoredId>& hits, size_t limit) {
    size_t taken = 0;
    for (const vecmath::ScoredId& hit : hits) {
      const uint32_t* end = corpus_.RowCellsEnd(hit.id);
      for (const uint32_t* cell = corpus_.RowCellsBegin(hit.id);
           cell != end && taken < limit; ++cell) {
        auto& [sum, count] = sums_[corpus_.refs[*cell].relation];
        sum += hit.score;
        ++count;
        ++taken;
      }
      if (taken == limit) break;
    }
    return taken;
  }

  /// Every relation with a taken cell, scored by its mean, in relation
  /// order (unsorted).
  Ranking Take() const;

 private:
  const CorpusEmbeddings& corpus_;
  std::vector<std::pair<double, uint32_t>> sums_;
};

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_CORPUS_EMBEDDINGS_H_
