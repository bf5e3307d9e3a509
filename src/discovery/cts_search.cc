#include "discovery/cts_search.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "obs/trace.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::discovery {

namespace {

// Clusters are small by design; graph indexes only pay off past a few
// thousand points.
constexpr size_t kHnswClusterCells = 2048;

// Row of `rows` nearest to `point` in squared L2. Scalar-reference kernels:
// cluster assignment is part of the build and must be bit-reproducible
// across SIMD tiers (see vecmath/simd.h). `dist` is caller-owned scratch so
// the per-cell assignment loop doesn't allocate per call.
size_t NearestRow(const vecmath::Matrix& rows, const float* point,
                  std::vector<float>* dist) {
  dist->resize(rows.rows());
  vecmath::ScalarSquaredL2Batch(point, rows.Row(0), rows.rows(), rows.cols(),
                                dist->data());
  return static_cast<size_t>(std::min_element(dist->begin(), dist->end()) -
                             dist->begin());
}

}  // namespace

CtsSearcher::CtsSearcher(CtsOptions options) : options_(options) {}

CtsSearcher::~CtsSearcher() = default;

Result<std::unique_ptr<CtsSearcher>> CtsSearcher::Build(
    const table::Federation& /*federation*/,
    std::shared_ptr<const CorpusEmbeddings> corpus,
    std::shared_ptr<const embed::SemanticEncoder> encoder,
    const CtsOptions& options, ThreadPool* pool) {
  if (corpus == nullptr || encoder == nullptr) {
    return Status::InvalidArgument("cts: null corpus/encoder");
  }
  const size_t n = corpus->num_cells();
  const vecmath::RowsView cells = corpus->CellVectors();
  std::unique_ptr<CtsSearcher> searcher(new CtsSearcher(options));
  searcher->encoder_ = encoder;
  searcher->num_relations_ = corpus->num_relations;

  // ---- Table vectorization + dimensionality reduction (Algorithm 3) ----
  // Corpora too small for a meaningful manifold collapse to one cluster.
  const size_t min_for_clustering =
      std::max<size_t>(32, options.hdbscan.min_cluster_size * 4);

  std::vector<int32_t> cell_cluster(n, 0);
  vecmath::Matrix& medoids = searcher->medoids_;  // full-dim, per cluster
  size_t num_clusters = 1;

  if (n >= min_for_clustering) {
    WallTimer umap_timer;
    MIRA_ASSIGN_OR_RETURN(dimred::UmapModel umap,
                          dimred::FitUmap(cells, options.umap, pool));
    searcher->umap_ms_ = umap_timer.ElapsedMillis();
    const vecmath::Matrix& reduced = umap.embedding;
    const size_t rd = reduced.cols();

    // HDBSCAN on (a sample of) the reduced vectors.
    std::vector<size_t> sample_rows;
    if (n > options.max_clustering_points) {
      Rng rng(options.seed ^ 0xC7u);
      sample_rows =
          rng.SampleWithoutReplacement(n, options.max_clustering_points);
      std::sort(sample_rows.begin(), sample_rows.end());
    } else {
      sample_rows.resize(n);
      for (size_t i = 0; i < n; ++i) sample_rows[i] = i;
    }
    vecmath::Matrix sample(sample_rows.size(), rd);
    for (size_t i = 0; i < sample_rows.size(); ++i) {
      std::copy(reduced.Row(sample_rows[i]), reduced.Row(sample_rows[i]) + rd,
                sample.Row(i));
    }
    WallTimer hdbscan_timer;
    MIRA_ASSIGN_OR_RETURN(cluster::HdbscanResult clustering,
                          cluster::Hdbscan(sample, options.hdbscan, pool));
    searcher->hdbscan_ms_ = hdbscan_timer.ElapsedMillis();

    if (clustering.num_clusters() >= 2) {
      num_clusters = clustering.num_clusters();
      // Medoids are computed manually (HDBSCAN provides no centers, §4.3) in
      // the reduced space; keep both representations.
      std::vector<size_t> medoid_sample_rows =
          cluster::ComputeMedoids(sample, clustering);
      vecmath::Matrix medoid_reduced(num_clusters, rd);
      medoids = vecmath::Matrix(num_clusters, corpus->dim());
      for (size_t m = 0; m < num_clusters; ++m) {
        const size_t cell = sample_rows[medoid_sample_rows[m]];
        medoid_reduced.SetRow(m, reduced.RowVec(cell));
        medoids.SetRow(m, cells.RowVec(cell));
      }

      // Cluster of each cell: HDBSCAN label for sampled+clustered cells,
      // nearest medoid (reduced space) for noise and out-of-sample cells.
      std::vector<int32_t> sample_label_of_row(n, cluster::kNoise);
      for (size_t i = 0; i < sample_rows.size(); ++i) {
        sample_label_of_row[sample_rows[i]] = clustering.labels[i];
      }
      std::vector<float> medoid_dist;
      for (size_t i = 0; i < n; ++i) {
        int32_t label = sample_label_of_row[i];
        cell_cluster[i] =
            label != cluster::kNoise
                ? label
                : static_cast<int32_t>(
                      NearestRow(medoid_reduced, reduced.Row(i), &medoid_dist));
      }
    }
  }

  if (num_clusters == 1) {
    // Degenerate case: one cluster holding everything; its medoid is the
    // cell closest to the (per-cell) corpus centroid. Cells that share a row
    // are equally close, so the nearest distinct row is that cell's vector.
    vecmath::Vec centroid(corpus->dim(), 0.f);
    for (size_t i = 0; i < n; ++i) {
      vecmath::AddInPlace(centroid.data(), cells.Row(i), corpus->dim());
    }
    vecmath::ScaleInPlace(&centroid, 1.0f / static_cast<float>(n));
    std::vector<float> dist;
    const size_t best = NearestRow(corpus->rows, centroid.data(), &dist);
    medoids = vecmath::Matrix(1, corpus->dim());
    medoids.SetRow(0, corpus->rows.RowVec(best));
  }
  searcher->num_clusters_ = num_clusters;

  // ---- Store the clusters (§4.3): one row block ordered by cluster, the
  // medoids acting as the retrieval index. Rows are normalized once here,
  // so a probe is a plain dot scan. ----
  const size_t dim = corpus->dim();
  std::vector<size_t>& begin = searcher->cluster_begin_;
  begin.assign(num_clusters + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ++begin[static_cast<size_t>(cell_cluster[i]) + 1];
  }
  size_t largest = 0;
  for (size_t c = 0; c < num_clusters; ++c) {
    largest = std::max(largest, begin[c + 1]);
    begin[c + 1] += begin[c];
  }
  searcher->largest_cluster_fraction_ =
      static_cast<double>(largest) / static_cast<double>(n);

  searcher->cluster_graphs_.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    if (begin[c + 1] - begin[c] < kHnswClusterCells) continue;
    index::HnswOptions hnsw;  // cosine, M 16, ef_construction 200, ef 64
    hnsw.seed = options.seed + c;
    searcher->cluster_graphs_[c] = std::make_unique<index::HnswIndex>(hnsw);
  }
  searcher->rows_ = vecmath::Matrix(n, dim);
  searcher->row_relation_.resize(n);
  std::vector<size_t> next_row(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = static_cast<size_t>(cell_cluster[i]);
    const size_t row = next_row[c]++;
    float* out = searcher->rows_.Row(row);
    std::copy(cells.Row(i), cells.Row(i) + dim, out);
    vecmath::NormalizeInPlace(out, dim);
    searcher->row_relation_[row] = corpus->refs[i].relation;
    // A graph takes the raw row, keyed by row, and normalizes it itself.
    if (const auto& graph = searcher->cluster_graphs_[c]) {
      MIRA_RETURN_NOT_OK(graph->Add(row, cells.RowVec(i)));
    }
  }
  for (const auto& graph : searcher->cluster_graphs_) {
    if (graph != nullptr) MIRA_RETURN_NOT_OK(graph->Build());
  }
  for (size_t c = 0; c < num_clusters; ++c) {
    vecmath::NormalizeInPlace(medoids.Row(c), dim);
  }
  return searcher;
}

Result<Ranking> CtsSearcher::Search(const std::string& query,
                                    const DiscoveryOptions& options) const {
  vecmath::Vec q;
  {
    obs::TraceSpan span("embed_query");
    q = encoder_->EncodeText(query);
    vecmath::NormalizeInPlace(&q);
  }
  if (q.size() != medoids_.cols()) {
    return Status::InvalidArgument(StrFormat(
        "cts: query dim %zu != %zu", q.size(), medoids_.cols()));
  }
  // Flat scans score against a re-normalization of q, whose low bits the
  // pinned rankings depend on; the graphs normalize q themselves.
  const vecmath::Vec scan_q = vecmath::Normalized(q);

  const QueryControl& control = options.control;
  const QueryControl* control_ptr = control.active() ? &control : nullptr;

  // Match the query against the cluster medoids and keep the top clusters.
  obs::TraceSpan medoid_span("cts.medoid_match");
  vecmath::TopK medoid_top(options_.cluster_candidates);
  MIRA_RETURN_NOT_OK(index::ScanRows(
      scan_q.data(), medoids_.Row(0), num_clusters_, medoids_.cols(),
      vecmath::Metric::kCosine, control_ptr,
      [&](size_t c, float score) { medoid_top.Push(c, score); }));
  const std::vector<vecmath::ScoredId> medoid_hits = medoid_top.Take();
  medoid_span.AddCounter("clusters_total", static_cast<int64_t>(num_clusters_));
  medoid_span.AddCounter("clusters_selected",
                         static_cast<int64_t>(medoid_hits.size()));
  medoid_span.AddCounter(
      "clusters_pruned",
      static_cast<int64_t>(num_clusters_ - medoid_hits.size()));
  medoid_span.Finish();

  // Targeted search inside the selected clusters only. Hits are summed per
  // relation in probe order (medoid rank, then best-first within a cluster).
  obs::TraceSpan cluster_span("cts.cluster_search");
  size_t per_cluster =
      std::max<size_t>(16, options_.cell_candidates /
                               std::max<size_t>(1, medoid_hits.size()));
  size_t cell_hits = 0;
  size_t clusters_searched = 0;
  bool degraded = false;
  // Fills `hits` with the per_cluster best rows of cluster c, best-first:
  // through its graph, or by selecting from a flat scan of its row range.
  std::vector<vecmath::ScoredId> hits;
  auto probe = [&](size_t c) -> Status {
    if (cluster_graphs_[c] != nullptr) {
      MIRA_ASSIGN_OR_RETURN(
          hits, cluster_graphs_[c]->Search(q, {per_cluster, 0, control_ptr}));
      return Status::OK();
    }
    const size_t first = cluster_begin_[c];
    hits.clear();
    MIRA_RETURN_NOT_OK(index::ScanRows(
        scan_q.data(), rows_.Row(first), cluster_begin_[c + 1] - first,
        rows_.cols(), vecmath::Metric::kCosine, control_ptr,
        [&](size_t offset, float score) {
          hits.push_back({first + offset, score});
        }));
    vecmath::SortTopK(&hits, per_cluster);
    return Status::OK();
  };
  std::vector<std::pair<double, uint32_t>> grouped(num_relations_);
  for (const auto& medoid_hit : medoid_hits) {
    // Degradation point: once at least one cluster has been probed, a spent
    // budget shrinks the probe set instead of failing the query. Scores stay
    // real (per-cluster searches are exact within their cluster); only
    // cluster coverage shrinks, so the ranking is flagged degraded+partial.
    if (clusters_searched > 0 && control.ShouldStop()) {
      degraded = true;
      break;
    }
    Status probed = probe(static_cast<size_t>(medoid_hit.id));
    if (!probed.ok()) {
      // A deadline firing mid-probe degrades to the clusters already
      // covered; cancellation and real errors always propagate.
      if (probed.IsDeadlineExceeded() && cell_hits > 0) {
        degraded = true;
        break;
      }
      return probed;
    }
    ++clusters_searched;
    cell_hits += hits.size();
    for (const auto& hit : hits) {
      auto& [sum, count] = grouped[row_relation_[hit.id]];
      sum += hit.score;
      ++count;
    }
    MIRA_FAILPOINT("cts.cluster_probe");
  }
  Ranking ranking;
  for (table::RelationId rid = 0; rid < num_relations_; ++rid) {
    const auto& [sum, count] = grouped[rid];
    if (count > 0) ranking.push_back({rid, static_cast<float>(sum / count)});
  }
  cluster_span.AddCounter("clusters_searched",
                          static_cast<int64_t>(clusters_searched));
  cluster_span.AddCounter("per_cluster_k", static_cast<int64_t>(per_cluster));
  cluster_span.AddCounter("cell_hits", static_cast<int64_t>(cell_hits));
  cluster_span.AddCounter("relations", static_cast<int64_t>(ranking.size()));
  cluster_span.Finish();

  ApplyThresholdAndTopK(&ranking, options);
  ranking.degraded = degraded;
  ranking.partial = degraded;  // skipped clusters = candidates never seen
  return ranking;
}

size_t CtsSearcher::IndexMemoryBytes() const {
  return MemoryUsage().index.total();
}

CollectionMemoryStats CtsSearcher::MemoryUsage() const {
  CollectionMemoryStats total;
  total.points_bytes = row_relation_.size() * sizeof(table::RelationId) +
                       cluster_begin_.size() * sizeof(size_t);
  total.index.vectors_bytes =
      (rows_.data().size() + medoids_.data().size()) * sizeof(float);
  for (const auto& graph : cluster_graphs_) {
    if (graph == nullptr) continue;
    const index::MemoryStats stats = graph->MemoryUsage();
    total.index.vectors_bytes += stats.vectors_bytes;
    total.index.ids_bytes += stats.ids_bytes;
    total.index.graph_bytes += stats.graph_bytes;
  }
  return total;
}

}  // namespace mira::discovery
