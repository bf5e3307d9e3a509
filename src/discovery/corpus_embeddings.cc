#include "discovery/corpus_embeddings.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "vecmath/vector_ops.h"

namespace mira::discovery {

Result<CorpusEmbeddings> CorpusEmbeddings::Build(
    const table::Federation& federation, const embed::SemanticEncoder& encoder,
    ThreadPool* pool) {
  if (federation.empty()) {
    return Status::InvalidArgument("corpus embeddings: empty federation");
  }

  CorpusEmbeddings corpus;
  corpus.num_relations = federation.size();
  corpus.cells_per_relation.assign(federation.size(), 0);

  // Group the cells by text; cell_rows holds each cell's text id until the
  // texts are grouped by their vectors below.
  std::vector<std::string_view> texts;
  {
    std::unordered_map<std::string_view, uint32_t> text_ids;
    for (table::RelationId rid = 0; rid < federation.size(); ++rid) {
      const table::Relation& relation = federation.relation(rid);
      for (uint32_t r = 0; r < relation.num_rows(); ++r) {
        for (uint32_t c = 0; c < relation.num_columns(); ++c) {
          const std::string& cell = relation.rows[r][c];
          if (cell.empty()) continue;
          auto [it, inserted] = text_ids.try_emplace(
              cell, static_cast<uint32_t>(texts.size()));
          if (inserted) texts.push_back(cell);
          corpus.cell_rows.push_back(it->second);
          corpus.refs.push_back(CellRef{rid, r, c});
          ++corpus.cells_per_relation[rid];
        }
      }
    }
  }
  if (corpus.refs.empty()) {
    return Status::InvalidArgument("corpus embeddings: no non-empty cells");
  }

  // Each distinct text is embedded once, into its own row.
  const size_t dim = encoder.dim();
  corpus.rows = vecmath::Matrix(texts.size(), dim);
  embed::TokenBatch batch = encoder.PrepareBatch(texts, pool);

  // Cancellable loop (runs inline when pool is null) so an injected encode
  // failure aborts the build with a typed Status instead of finishing with a
  // silently wrong row — first non-OK wins, remaining texts are skipped.
  auto embed_one = [&](size_t t) -> Status {
    MIRA_FAILPOINT("embed.encode");
    float* row = corpus.rows.Row(t);
    encoder.PoolBatchText(batch, t, row);
    // Normalized a second time (PoolBatchText already normalizes): the
    // corpus bytes, pinned by ParallelBuildStressTest, include this pass.
    vecmath::NormalizeInPlace(row, dim);
    return Status::OK();
  };
  MIRA_RETURN_NOT_OK(
      ParallelForCancellable(pool, 0, texts.size(), nullptr, embed_one));
  encoder.CacheTokens(std::move(batch));

  // Group the text rows by exact bytes, compacting them in place: text t's
  // row moves down to the next free row, and stays there only if no earlier
  // row has its bytes. The map's keys view rows that no longer move, so a
  // hash collision only costs a comparison. Rows are numbered in the order
  // of their first texts, which is the order of their first cells.
  const size_t row_bytes = dim * sizeof(float);
  std::vector<uint32_t> row_of_text(texts.size());
  std::unordered_map<std::string_view, uint32_t> row_ids;
  uint32_t num_rows = 0;
  for (size_t t = 0; t < texts.size(); ++t) {
    float* row = corpus.rows.Row(num_rows);
    if (num_rows != t) std::memcpy(row, corpus.rows.Row(t), row_bytes);
    auto [it, inserted] = row_ids.try_emplace(
        std::string_view(reinterpret_cast<const char*>(row), row_bytes),
        num_rows);
    if (inserted) ++num_rows;
    row_of_text[t] = it->second;
  }
  corpus.rows.TruncateRows(num_rows);
  for (uint32_t& row : corpus.cell_rows) row = row_of_text[row];
  return corpus;
}

namespace {

// Format v3 ("MIRACOR3"): magic, then six little-endian uint64 header words
// {num_relations, cells, cols, rows, payload_checksum, header_checksum},
// then the payload (rows, refs, cell_rows). header_checksum covers the
// magic + the first five words; payload_checksum covers every payload byte
// in file order. v1 and v2 files (a row per cell) are not readable — Load
// reports them as kDataLoss naming the format it reads.
constexpr char kCorpusMagic[8] = {'M', 'I', 'R', 'A', 'C', 'O', 'R', '3'};
constexpr size_t kHeaderWords = 6;

// The payload size of a header's shape; false when it overflows.
bool PayloadBytes(uint64_t cells, uint64_t cols, uint64_t rows,
                  uint64_t* bytes) {
  uint64_t vectors = 0, per_cell = 0;
  return !__builtin_mul_overflow(rows, cols, &vectors) &&
         !__builtin_mul_overflow(vectors, sizeof(float), &vectors) &&
         !__builtin_mul_overflow(cells, sizeof(CellRef) + sizeof(uint32_t),
                                 &per_cell) &&
         !__builtin_add_overflow(vectors, per_cell, bytes);
}

// Calls visit(data, bytes) on each part of the payload, in file order,
// while it returns true.
template <typename Corpus, typename Visit>
bool ForEachPayloadPart(Corpus& corpus, const Visit& visit) {
  return visit(corpus.rows.data().data(),
               corpus.rows.data().size() * sizeof(float)) &&
         visit(corpus.refs.data(), corpus.refs.size() * sizeof(CellRef)) &&
         visit(corpus.cell_rows.data(),
               corpus.cell_rows.size() * sizeof(uint32_t));
}

uint64_t PayloadChecksum(const CorpusEmbeddings& corpus) {
  Checksum64 sum;
  ForEachPayloadPart(corpus, [&sum](const void* data, size_t bytes) {
    sum.Update(data, bytes);
    return true;
  });
  return sum.Digest();
}

// Covers the magic and every header word but the last, which holds it.
uint64_t HeaderChecksum(const uint64_t (&header)[kHeaderWords]) {
  Checksum64 sum;
  sum.Update(kCorpusMagic, sizeof(kCorpusMagic));
  sum.Update(header, (kHeaderWords - 1) * sizeof(uint64_t));
  return sum.Digest();
}

}  // namespace

Status CorpusEmbeddings::Save(const std::string& path) const {
  MIRA_FAILPOINT("corpus.save");

  uint64_t header[kHeaderWords] = {num_relations, refs.size(), rows.cols(),
                                   rows.rows(), PayloadChecksum(*this), 0};
  header[5] = HeaderChecksum(header);

  // Write to a sibling tmp file, fsync, then atomically rename into place:
  // a crash (or injected fault) at any point leaves either the old good
  // file or no file at `path` — never a torn one. The interrupted tmp is
  // deliberately left behind for post-mortem inspection.
  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError(
        StrFormat("corpus save: cannot open '%s'", tmp_path.c_str()));
  }

  // Byte budget the partial-write failpoint can lower to simulate a writer
  // dying mid-stream (ENOSPC, power cut); unlimited when disarmed.
  size_t write_budget = SIZE_MAX;
  MIRA_FAILPOINT_PARTIAL("corpus.save.partial", write_budget);
  auto write_chunk = [&](const void* data, size_t len) {
    const size_t take = len < write_budget ? len : write_budget;
    const size_t written = std::fwrite(data, 1, take, out);
    write_budget -= written;
    return written == len;
  };

  bool ok = write_chunk(kCorpusMagic, sizeof(kCorpusMagic)) &&
            write_chunk(header, sizeof(header)) &&
            ForEachPayloadPart(*this, write_chunk);
  // fsync before close: rename-over is only atomic-durable if the tmp's
  // bytes reached the device first.
  if (ok) ok = std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
  const bool closed = std::fclose(out) == 0;
  if (!ok || !closed) {
    return Status::IoError(StrFormat(
        "corpus save: short write to '%s' (target untouched)",
        tmp_path.c_str()));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IoError(StrFormat("corpus save: rename to '%s' failed",
                                     path.c_str()));
  }
  return Status::OK();
}

Result<CorpusEmbeddings> CorpusEmbeddings::Load(const std::string& path) {
  MIRA_FAILPOINT("corpus.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(
        StrFormat("corpus load: cannot open '%s'", path.c_str()));
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kCorpusMagic, sizeof(kCorpusMagic)) != 0) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' is not a MIRACOR3 file (corrupt, truncated, or "
        "an older format)",
        path.c_str()));
  }
  uint64_t header[kHeaderWords];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (in.gcount() != sizeof(header)) {
    return Status::DataLoss(
        StrFormat("corpus load: '%s' truncated in header", path.c_str()));
  }
  if (HeaderChecksum(header) != header[5]) {
    return Status::DataLoss(
        StrFormat("corpus load: '%s' header checksum mismatch", path.c_str()));
  }

  // The checksums are an unkeyed public hash, so a crafted file can carry
  // valid ones: check the shape against the file before allocating it.
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(static_cast<std::streamoff>(sizeof(kCorpusMagic) + sizeof(header)));
  const uint64_t file_payload =
      file_size - sizeof(kCorpusMagic) - sizeof(header);
  uint64_t payload_bytes = 0;
  if (!PayloadBytes(header[1], header[2], header[3], &payload_bytes)) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' header shape overflows", path.c_str()));
  }
  // Every row is the vector of at least one cell, and the per-relation
  // counts derived below take no more memory than the payload.
  if (header[3] > header[1] || header[0] > payload_bytes / sizeof(uint32_t)) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' has more rows than cells or more relations than "
        "its payload holds", path.c_str()));
  }
  if (payload_bytes > file_payload) {
    return Status::DataLoss(
        StrFormat("corpus load: '%s' truncated in payload", path.c_str()));
  }
  if (payload_bytes < file_payload) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' is longer than its header's shape", path.c_str()));
  }

  CorpusEmbeddings corpus;
  corpus.num_relations = header[0];
  corpus.refs.resize(header[1]);
  corpus.cell_rows.resize(header[1]);
  corpus.rows = vecmath::Matrix(header[3], header[2]);

  auto read_chunk = [&](void* data, size_t len) {
    in.read(reinterpret_cast<char*>(data),
            static_cast<std::streamsize>(len));
    return static_cast<size_t>(in.gcount()) == len;
  };
  if (!ForEachPayloadPart(corpus, read_chunk)) {
    return Status::DataLoss(
        StrFormat("corpus load: '%s' truncated in payload", path.c_str()));
  }
  if (PayloadChecksum(corpus) != header[4]) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' payload checksum mismatch (flipped or torn bytes)",
        path.c_str()));
  }
  // Searchers index per-relation arrays by refs[i].relation and the rows by
  // cell_rows[i].
  corpus.cells_per_relation.assign(corpus.num_relations, 0);
  for (size_t i = 0; i < corpus.num_cells(); ++i) {
    const CellRef& ref = corpus.refs[i];
    if (ref.relation >= corpus.num_relations) {
      return Status::DataLoss(StrFormat(
          "corpus load: '%s' has a cell of relation %u of %zu", path.c_str(),
          ref.relation, corpus.num_relations));
    }
    if (corpus.cell_rows[i] >= corpus.num_rows()) {
      return Status::DataLoss(StrFormat(
          "corpus load: '%s' has a cell of row %u of %zu", path.c_str(),
          corpus.cell_rows[i], corpus.num_rows()));
    }
    ++corpus.cells_per_relation[ref.relation];
  }
  return corpus;
}

Result<CorpusEmbeddings> CorpusEmbeddings::LoadWithRetry(
    const std::string& path, const RetryOptions& retry,
    const QueryControl* control) {
  RetryPolicy policy(retry);
  return policy.RunResult<CorpusEmbeddings>(
      [&path]() { return Load(path); }, control);
}

}  // namespace mira::discovery
