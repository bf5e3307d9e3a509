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

  // Group the cells by text: each distinct text is embedded once, into the
  // row of its first cell, and copied to the rows of its repeats.
  std::vector<std::string_view> texts;
  std::vector<size_t> first_row;      // per distinct text
  std::vector<uint32_t> text_of_row;  // per cell
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
          if (inserted) {
            texts.push_back(cell);
            first_row.push_back(corpus.refs.size());
          }
          text_of_row.push_back(it->second);
          corpus.refs.push_back(CellRef{rid, r, c});
          ++corpus.cells_per_relation[rid];
        }
      }
    }
  }
  if (corpus.refs.empty()) {
    return Status::InvalidArgument("corpus embeddings: no non-empty cells");
  }

  // The batch keeps its direction table in the cell matrix, whose rows are
  // written only after the table is dead, so the table needs no memory of
  // its own: a separate one raised peak RSS whenever a build ran on a heap
  // that still held a freed earlier build.
  const size_t dim = encoder.dim();
  corpus.vectors = vecmath::Matrix(corpus.refs.size(), dim);
  embed::TokenBatch batch =
      encoder.PrepareBatch(texts, pool, corpus.vectors.data().data(),
                           corpus.vectors.data().size());

  // Cancellable loop (runs inline when pool is null) so an injected encode
  // failure aborts the build with a typed Status instead of finishing with a
  // silently wrong row — first non-OK wins, remaining texts are skipped.
  auto embed_one = [&](size_t t) -> Status {
    MIRA_FAILPOINT("embed.encode");
    float* row = corpus.vectors.Row(first_row[t]);
    encoder.PoolBatchText(batch, t, row);
    // Normalized a second time (PoolBatchText already normalizes): the
    // corpus bytes, pinned by ParallelBuildStressTest, include this pass.
    vecmath::NormalizeInPlace(row, dim);
    return Status::OK();
  };
  MIRA_RETURN_NOT_OK(
      ParallelForCancellable(pool, 0, texts.size(), nullptr, embed_one));
  ParallelFor(pool, 0, corpus.refs.size(), [&](size_t i) {
    const size_t source = first_row[text_of_row[i]];
    if (source != i) {
      std::memcpy(corpus.vectors.Row(i), corpus.vectors.Row(source),
                  dim * sizeof(float));
    }
  });
  encoder.CacheTokens(std::move(batch));
  return corpus;
}

namespace {

// Format v2 ("MIRACOR2"): magic, then five little-endian uint64 header
// words {num_relations, rows, cols, payload_checksum, header_checksum},
// then the payload (vectors, refs, cells_per_relation). header_checksum
// covers the magic + the first four words; payload_checksum covers every
// payload byte in file order. v1 files (no checksums) are not readable —
// Load reports them as kDataLoss with the version in the message.
constexpr char kCorpusMagic[8] = {'M', 'I', 'R', 'A', 'C', 'O', 'R', '2'};
constexpr size_t kHeaderWords = 5;

// The payload size of a header's shape; false when it overflows.
bool PayloadBytes(uint64_t num_relations, uint64_t rows, uint64_t cols,
                  uint64_t* bytes) {
  uint64_t vectors = 0, refs = 0, counts = 0;
  return !__builtin_mul_overflow(rows, cols, &vectors) &&
         !__builtin_mul_overflow(vectors, sizeof(float), &vectors) &&
         !__builtin_mul_overflow(rows, sizeof(CellRef), &refs) &&
         !__builtin_mul_overflow(num_relations, sizeof(uint32_t), &counts) &&
         !__builtin_add_overflow(vectors, refs, bytes) &&
         !__builtin_add_overflow(*bytes, counts, bytes);
}

}  // namespace

Status CorpusEmbeddings::Save(const std::string& path) const {
  MIRA_FAILPOINT("corpus.save");

  const size_t vectors_bytes = vectors.data().size() * sizeof(float);
  const size_t refs_bytes = refs.size() * sizeof(CellRef);
  const size_t counts_bytes = cells_per_relation.size() * sizeof(uint32_t);

  uint64_t header[kHeaderWords] = {num_relations, vectors.rows(),
                                   vectors.cols(), 0, 0};
  Checksum64 payload_sum;
  payload_sum.Update(vectors.data().data(), vectors_bytes);
  payload_sum.Update(refs.data(), refs_bytes);
  payload_sum.Update(cells_per_relation.data(), counts_bytes);
  header[3] = payload_sum.Digest();
  Checksum64 header_sum;
  header_sum.Update(kCorpusMagic, sizeof(kCorpusMagic));
  header_sum.Update(header, 4 * sizeof(uint64_t));
  header[4] = header_sum.Digest();

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
            write_chunk(vectors.data().data(), vectors_bytes) &&
            write_chunk(refs.data(), refs_bytes) &&
            write_chunk(cells_per_relation.data(), counts_bytes);
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
        "corpus load: '%s' is not a MIRACOR2 file (corrupt, truncated, or "
        "pre-checksum format)",
        path.c_str()));
  }
  uint64_t header[kHeaderWords];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (in.gcount() != sizeof(header)) {
    return Status::DataLoss(
        StrFormat("corpus load: '%s' truncated in header", path.c_str()));
  }
  Checksum64 header_sum;
  header_sum.Update(kCorpusMagic, sizeof(kCorpusMagic));
  header_sum.Update(header, 4 * sizeof(uint64_t));
  if (header_sum.Digest() != header[4]) {
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
  if (!PayloadBytes(header[0], header[1], header[2], &payload_bytes)) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' header shape overflows", path.c_str()));
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
  corpus.vectors = vecmath::Matrix(header[1], header[2]);
  corpus.refs.resize(header[1]);
  corpus.cells_per_relation.resize(corpus.num_relations);

  const size_t vectors_bytes = corpus.vectors.data().size() * sizeof(float);
  const size_t refs_bytes = corpus.refs.size() * sizeof(CellRef);
  const size_t counts_bytes =
      corpus.cells_per_relation.size() * sizeof(uint32_t);
  auto read_chunk = [&](void* data, size_t len) {
    in.read(reinterpret_cast<char*>(data),
            static_cast<std::streamsize>(len));
    return static_cast<size_t>(in.gcount()) == len;
  };
  if (!read_chunk(corpus.vectors.data().data(), vectors_bytes) ||
      !read_chunk(corpus.refs.data(), refs_bytes) ||
      !read_chunk(corpus.cells_per_relation.data(), counts_bytes)) {
    return Status::DataLoss(
        StrFormat("corpus load: '%s' truncated in payload", path.c_str()));
  }
  Checksum64 payload_sum;
  payload_sum.Update(corpus.vectors.data().data(), vectors_bytes);
  payload_sum.Update(corpus.refs.data(), refs_bytes);
  payload_sum.Update(corpus.cells_per_relation.data(), counts_bytes);
  if (payload_sum.Digest() != header[3]) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' payload checksum mismatch (flipped or torn bytes)",
        path.c_str()));
  }
  // Searchers index per-relation arrays by refs[i].relation.
  std::vector<uint32_t> counted(corpus.num_relations, 0);
  for (const CellRef& ref : corpus.refs) {
    if (ref.relation >= corpus.num_relations) {
      return Status::DataLoss(StrFormat(
          "corpus load: '%s' has a cell of relation %u of %zu", path.c_str(),
          ref.relation, corpus.num_relations));
    }
    ++counted[ref.relation];
  }
  if (counted != corpus.cells_per_relation) {
    return Status::DataLoss(StrFormat(
        "corpus load: '%s' per-relation cell counts disagree with its cells",
        path.c_str()));
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
