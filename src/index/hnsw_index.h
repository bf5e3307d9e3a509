#ifndef MIRA_INDEX_HNSW_INDEX_H_
#define MIRA_INDEX_HNSW_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/threadpool.h"
#include "index/product_quantizer.h"
#include "index/types.h"
#include "vecmath/distance.h"
#include "vecmath/matrix.h"
#include "vecmath/top_k.h"
#include "vecmath/vector_ops.h"

namespace mira::index {

/// Hierarchical Navigable Small World graph (Malkov & Yashunin [29]): a
/// multi-layer proximity graph in which each element's maximum layer is drawn
/// from an exponentially decaying distribution; upper layers provide long
/// hops, layer 0 holds everyone. Search greedily descends the hierarchy and
/// finishes with a beam (ef) search on layer 0 — pruning the search space
/// exactly as §4.2 describes.
struct HnswOptions {
  /// Max out-degree per node on layers > 0 (layer 0 allows 2M).
  size_t M = 16;
  /// Beam width during construction.
  size_t ef_construction = 200;
  /// Default beam width during search (override per query via
  /// SearchParams::ef).
  size_t ef_search = 64;
  vecmath::Metric metric = vecmath::Metric::kCosine;
  uint64_t seed = 7;
  /// When set, vectors are additionally Product-Quantization compressed at
  /// Build() time and layer-0 traversal runs on ADC lookups, with the final
  /// beam rescored against the exact vectors (Qdrant-style quantized search
  /// with rescoring). kDot is not supported with quantization.
  std::optional<PqOptions> quantization;
  /// Compute distances with the scalar-reference kernels instead of the
  /// active SIMD tier, making graph construction and traversal
  /// bit-reproducible across CPUs. Set by build-pipeline consumers whose
  /// output feeds clustering (UMAP's kNN graph); leave off for serving
  /// indexes, where tier speed matters and near-tie neighbor flips are
  /// harmless.
  bool deterministic = false;
};

/// Thread-safety: Add() may be called concurrently (appends are serialized
/// internally). Build() must be called exactly once after all Adds have
/// completed — the caller provides that ordering. After Build() returns,
/// Search() and the const accessors may be called concurrently; nothing
/// mutates post-build state.
class HnswIndex {
 public:
  explicit HnswIndex(HnswOptions options = {});

  /// Registers a vector under an external id. Ids must be unique; dimensions
  /// must agree across calls. Fails after Build().
  [[nodiscard]] Status Add(uint64_t id, const vecmath::Vec& vector);
  /// Capacity hint: pre-sizes storage for about this many Add() calls.
  void Reserve(size_t expected_rows);
  [[nodiscard]] Status Build() { return Build(nullptr); }
  /// Build() with a build pool. Graph insertion stays serial on the calling
  /// thread (its order determines the graph). When quantized, the PQ
  /// codebooks are trained and the codes encoded on `pool` from a second
  /// thread *while* the caller inserts: both only read the frozen vectors,
  /// and insertion never touches the codes, so the index is bit-identical to
  /// a null-pool build. Must not be called from a task of `pool`.
  [[nodiscard]] Status Build(ThreadPool* pool);
  /// Approximate k-nearest search. Fails before Build().
  [[nodiscard]] Result<std::vector<vecmath::ScoredId>> Search(
      const vecmath::Vec& query, const SearchParams& params) const;

  size_t size() const { return ids_.size(); }
  size_t dim() const { return vectors_.cols(); }
  vecmath::Metric metric() const { return options_.metric; }
  std::string name() const {
    return options_.quantization ? "hnsw+pq" : "hnsw";
  }
  /// Resident bytes of the search structures, by what holds them (the
  /// resource-accounting gauges read this).
  MemoryStats MemoryUsage() const;

  /// Max layer of the built graph (diagnostic).
  int max_level() const { return max_level_; }
  /// Out-degree of a node on a layer (diagnostic/testing).
  size_t Degree(uint32_t node, int level) const;
  /// Wall time of PQ training plus encoding, measured on the thread that
  /// ran them (with a build pool, beside graph insertion); 0 when not
  /// quantized.
  double pq_build_ms() const { return pq_build_ms_; }
  const HnswOptions& options() const { return options_; }

 private:
  struct Candidate {
    float distance;
    uint32_t node;
    bool operator<(const Candidate& other) const {
      return distance < other.distance ||
             (distance == other.distance && node < other.node);
    }
  };

  /// Reusable per-query search state: epoch-stamped visited marks (reset in
  /// O(1) by bumping the epoch instead of clearing a hash set), the beam's
  /// candidate pool, the per-pop gather buffers, and the ADC table buffer.
  /// After a few queries warm the buffers, Search() allocates nothing.
  struct SearchScratch {
    SearchScratch(size_t num_nodes, size_t max_degree, size_t code_bytes)
        : visited(num_nodes), gathered(max_degree), gathered_dist(max_degree),
          gathered_codes(max_degree * code_bytes) {}

    std::vector<uint32_t> visited;  // visited[node] == epoch -> seen
    uint32_t epoch = 0;
    /// SearchLayer's candidate pool, ascending, and its output.
    std::vector<Candidate> beam;
    std::vector<uint8_t> expanded;  // expanded[i] != 0 -> beam[i] expanded
    /// Evicted, unexpanded candidates tied with the pool's maximum.
    std::vector<Candidate> ties;
    std::vector<float> table;         // ADC distance table
    /// One expansion's unvisited neighbours, their distances, and their
    /// codes copied contiguous for AdcDistanceBatch.
    std::vector<uint32_t> gathered;
    std::vector<float> gathered_dist;
    std::vector<uint8_t> gathered_codes;

    /// Per-query effort counters, reset by Search() and reported on its
    /// trace span. Plain integers: bumping them inside the traversal loops
    /// is noise next to the distance computations they count.
    uint64_t stat_dist_comps = 0;   // exact distance evaluations
    uint64_t stat_adc_decoded = 0;  // ADC table lookups (quantized search)
    uint64_t stat_popped = 0;       // beam-search expansions

    /// Advances the visited epoch and clears the pool buffers. Call once per
    /// SearchLayer invocation.
    void BeginQuery();
  };

  /// Internal distance (lower = closer): squared L2 for kCosine (vectors
  /// normalized at Add) and kL2, negative dot for kDot.
  float ExactDistance(const float* query, uint32_t node) const;
  float OutputSimilarity(float internal_distance) const;

  int DrawLevel();
  /// A slice of the flat layer-0 row, or the node's upper-layer list.
  std::span<const uint32_t> Neighbors(uint32_t node, int level) const;
  void PrefetchRow(uint32_t node) const;
  /// The exact BatchDistance (see below), fetching each next row while the
  /// current one is scored.
  auto ExactBatch(const float* query, uint64_t* evaluated) const {
    return [this, query, evaluated](const uint32_t* nodes, size_t count,
                                    float* out) {
      *evaluated += count;
      for (size_t i = 0; i < count; ++i) {
        if (i + 1 < count) PrefetchRow(nodes[i + 1]);
        out[i] = ExactDistance(query, nodes[i]);
      }
    };
  }

  /// The traversal is written once over a BatchDistance callable
  /// `dist(nodes, count, out)` setting out[i] to the distance to nodes[i]
  /// and counting the evaluations: ExactBatch, or gathered codes through
  /// AdcDistanceBatch when quantized.
  ///
  /// Greedy hill-climb toward the query on one layer; returns the local
  /// minimum node. Deliberately not budget-checked: upper-layer descents
  /// touch a handful of nodes (O(log n) hops), far below the amortization
  /// stride of the layer-0 beam where the real work happens.
  template <typename BatchDistance>
  uint32_t GreedyClosest(const BatchDistance& dist, uint32_t entry, int level,
                         SearchScratch* scratch) const;
  /// Beam search on one layer; leaves the candidates sorted by distance in
  /// scratch->beam. Each pop scores the unvisited neighbours in one batch,
  /// then offers them to the pool in neighbour order: no distance depends
  /// on pool state, so the admissions match a one-at-a-time loop. `control`
  /// (nullable) is consulted every kControlPopStride pops; when it fires the
  /// beam is abandoned and kDeadlineExceeded/kCancelled is returned. With a
  /// null control the call cannot fail.
  template <typename BatchDistance>
  [[nodiscard]] Status SearchLayer(const BatchDistance& dist, uint32_t entry,
                                   size_t ef, int level,
                                   const QueryControl* control,
                                   SearchScratch* scratch) const;

  /// Beam pops between budget checks in SearchLayer. Each pop expands up to
  /// 2M neighbors, so 64 pops ≈ 2k distance evaluations of work between
  /// checks — amortized to nothing, responsive within microseconds.
  static constexpr uint64_t kControlPopStride = 64;

  /// Scratch pool so concurrent Search() calls each get warm buffers without
  /// sharing state; returned scratches keep their capacity for the next
  /// query.
  std::unique_ptr<SearchScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<SearchScratch> scratch) const;
  /// Diversifying neighbor selection (Algorithm 4 of [29]).
  std::vector<uint32_t> SelectNeighbors(uint32_t base,
                                        const std::vector<Candidate>& candidates,
                                        size_t max_neighbors) const;
  void Connect(uint32_t from, uint32_t to, int level);
  void InsertNode(uint32_t node, SearchScratch* scratch);

  size_t MaxDegree(int level) const {
    return level == 0 ? options_.M * 2 : options_.M;
  }

  HnswOptions options_;
  double level_mult_ = 0.0;
  uint64_t rng_state_ = 0;

  /// Serializes concurrent Add() calls (vectors_/ids_ appends) and the whole
  /// of Build(), so a straggler Add() during Build() blocks and then fails
  /// the built_ precondition instead of racing the phase transition.
  /// MemoryUsage() also takes it: stats collectors may poll mid-add-phase.
  ///
  /// The data fields below follow a *phase protocol* rather than a lifetime
  /// lock (see docs/STATIC_ANALYSIS.md): during the add phase they are
  /// written only under add_mu_; Build() completes the transition; after
  /// Build() they are immutable and Search() reads them lock-free. They are
  /// deliberately not MIRA_GUARDED_BY(add_mu_) — that would force the hot
  /// read-only Search() path to take a lock it does not need.
  // mira-lint-allow(guarded-member) -- phase protocol, see comment above
  mutable Mutex add_mu_;

  vecmath::Matrix vectors_;
  std::vector<uint64_t> ids_;
  /// Layer 0 as one fixed-stride array: node i's row at i * layer0_stride_
  /// holds its neighbour count, then up to 2M neighbour ids.
  std::vector<uint32_t> layer0_;
  size_t layer0_stride_ = 0;
  /// upper_links_[node][level - 1] = neighbour list on layers >= 1; the
  /// outer size is the node's level.
  std::vector<std::vector<std::vector<uint32_t>>> upper_links_;
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
  /// Phase flag. Build() release-stores true after the graph is complete;
  /// Search() acquire-loads it, so a Search that observes true also observes
  /// the finished graph even without an external happens-before edge.
  std::atomic<bool> built_{false};

  std::optional<ProductQuantizer> pq_;
  std::vector<uint8_t> codes_;  // size() * code_bytes when quantized
  double pq_build_ms_ = 0.0;

  mutable Mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<SearchScratch>> scratch_pool_
      MIRA_GUARDED_BY(scratch_mu_);
};

}  // namespace mira::index

#endif  // MIRA_INDEX_HNSW_INDEX_H_
