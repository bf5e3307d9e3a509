#include "index/hnsw_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vecmath/simd.h"

namespace mira::index {

HnswIndex::HnswIndex(HnswOptions options) : options_(options) {
  MIRA_CHECK(options_.M >= 2);
  level_mult_ = 1.0 / std::log(static_cast<double>(options_.M));
  rng_state_ = SplitMix64(options_.seed);
}

float HnswIndex::ExactDistance(const float* query, uint32_t node) const {
  const float* v = vectors_.Row(node);
  const size_t d = vectors_.cols();
  switch (options_.metric) {
    case vecmath::Metric::kCosine:
    case vecmath::Metric::kL2:
      return options_.deterministic ? vecmath::ScalarSquaredL2(query, v, d)
                                    : vecmath::SquaredL2(query, v, d);
    case vecmath::Metric::kDot:
      return options_.deterministic ? -vecmath::ScalarDot(query, v, d)
                                    : -vecmath::Dot(query, v, d);
  }
  return 0.f;
}

float HnswIndex::OutputSimilarity(float internal_distance) const {
  switch (options_.metric) {
    case vecmath::Metric::kCosine:
      // Vectors are unit-norm; |a-b|^2 = 2 - 2 cos.
      return 1.0f - internal_distance / 2.0f;
    case vecmath::Metric::kL2:
      return -internal_distance;
    case vecmath::Metric::kDot:
      return -internal_distance;
  }
  return 0.f;
}

Status HnswIndex::Add(uint64_t id, const vecmath::Vec& vector) {
  MutexLock lock(add_mu_);
  if (built_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("hnsw: index already built");
  }
  if (!vectors_.empty() && vector.size() != vectors_.cols()) {
    return Status::InvalidArgument(
        StrFormat("hnsw: dim mismatch (%zu vs %zu)", vector.size(),
                  vectors_.cols()));
  }
  if (options_.metric == vecmath::Metric::kCosine) {
    vectors_.AppendRow(vecmath::Normalized(vector));
  } else {
    vectors_.AppendRow(vector);
  }
  ids_.push_back(id);
  return Status::OK();
}

void HnswIndex::Reserve(size_t expected_rows) {
  MutexLock lock(add_mu_);
  vectors_.Reserve(expected_rows);
  ids_.reserve(expected_rows);
}

void HnswIndex::SearchScratch::BeginQuery() {
  ++epoch;
  if (epoch == 0) {
    // Epoch wrapped: stamps from 2^32 queries ago would read as visited.
    std::fill(visited.begin(), visited.end(), 0u);
    epoch = 1;
  }
  beam.clear();
  expanded.clear();
  ties.clear();
}

std::unique_ptr<HnswIndex::SearchScratch> HnswIndex::AcquireScratch() const {
  MutexLock lock(scratch_mu_);
  if (!scratch_pool_.empty()) {
    std::unique_ptr<SearchScratch> scratch = std::move(scratch_pool_.back());
    scratch_pool_.pop_back();
    return scratch;
  }
  return std::make_unique<SearchScratch>(
      ids_.size(), MaxDegree(0), pq_.has_value() ? pq_->code_bytes() : 0);
}

void HnswIndex::ReleaseScratch(std::unique_ptr<SearchScratch> scratch) const {
  MutexLock lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

int HnswIndex::DrawLevel() {
  rng_state_ = SplitMix64(rng_state_);
  double u = static_cast<double>(rng_state_ >> 11) * 0x1.0p-53;
  if (u <= 0.0) u = 1e-300;
  return static_cast<int>(std::floor(-std::log(u) * level_mult_));
}

std::span<const uint32_t> HnswIndex::Neighbors(uint32_t node,
                                                int level) const {
  if (level > 0) return upper_links_[node][level - 1];
  const uint32_t* row = layer0_.data() + node * layer0_stride_;
  return {row + 1, row[0]};
}

void HnswIndex::PrefetchRow(uint32_t node) const {
  const char* row = reinterpret_cast<const char*>(vectors_.Row(node));
  const size_t row_bytes = vectors_.cols() * sizeof(float);
  for (size_t b = 0; b < row_bytes; b += 64) __builtin_prefetch(row + b);
}

template <typename BatchDistance>
uint32_t HnswIndex::GreedyClosest(const BatchDistance& dist, uint32_t entry,
                                  int level, SearchScratch* scratch) const {
  float* out = scratch->gathered_dist.data();
  uint32_t current = entry;
  dist(&current, 1, out);
  float current_dist = out[0];
  bool improved = true;
  while (improved) {
    improved = false;
    // Every neighbour of the node the sweep started from is scored, as the
    // one-at-a-time sweep did; only the choice of `current` is sequential.
    std::span<const uint32_t> neighbors = Neighbors(current, level);
    dist(neighbors.data(), neighbors.size(), out);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (out[i] < current_dist) {
        current = neighbors[i];
        current_dist = out[i];
        improved = true;
      }
    }
  }
  return current;
}

template <typename BatchDistance>
Status HnswIndex::SearchLayer(const BatchDistance& dist, uint32_t entry,
                              size_t ef, int level,
                              const QueryControl* control,
                              SearchScratch* scratch) const {
  // One candidate pool (NSG's, Fu et al. 2019) in place of a frontier
  // min-heap and a best-ef max-heap: at most ef candidates sorted by
  // (distance, node), an expanded mark per entry, and a cursor at the first
  // unexpanded one. It expands exactly what the two heaps expanded, in the
  // same order: the heaps' next pop was the smallest unexpanded admitted
  // candidate, and an evicted candidate is greater than every pool member
  // from then on, so it could only be popped on an exact distance tie with
  // the pool's maximum. `ties` keeps those.
  scratch->BeginQuery();
  std::vector<Candidate>& pool = scratch->beam;
  std::vector<uint8_t>& expanded = scratch->expanded;
  std::vector<Candidate>& ties = scratch->ties;
  std::vector<uint32_t>& visited = scratch->visited;
  const uint32_t epoch = scratch->epoch;
  uint32_t* gathered = scratch->gathered.data();
  float* dists = scratch->gathered_dist.data();

  float d0 = 0.f;
  dist(&entry, 1, &d0);
  pool.push_back({d0, entry});
  expanded.push_back(0);
  visited[entry] = epoch;
  size_t cursor = 0;

  while (true) {
    Candidate c{};
    if (cursor < pool.size()) {
      c = pool[cursor];
      expanded[cursor] = 1;
    } else if (!ties.empty()) {
      // Every pool entry is expanded; the heaps would now pop the smallest
      // evicted candidate tied with the maximum.
      auto next = std::min_element(ties.begin(), ties.end());
      c = *next;
      *next = ties.back();
      ties.pop_back();
    } else {
      break;
    }
    ++scratch->stat_popped;
    if (control != nullptr &&
        scratch->stat_popped % kControlPopStride == 0) {
      MIRA_RETURN_NOT_OK(control->Check("hnsw.search_layer"));
    }
    // Branch-free gather: "already visited" is a coin flip to the branch
    // predictor, so the slot is always written and only fresh nodes count.
    size_t count = 0;
    for (uint32_t nb : Neighbors(c.node, level)) {
      gathered[count] = nb;
      count += visited[nb] != epoch;
      visited[nb] = epoch;
    }
    dist(gathered, count, dists);
    for (size_t i = 0; i < count; ++i) {
      if (pool.size() >= ef && !(dists[i] < pool.back().distance)) continue;
      const Candidate admitted{dists[i], gathered[i]};
      const size_t pos = static_cast<size_t>(
          std::lower_bound(pool.begin(), pool.end(), admitted) - pool.begin());
      pool.insert(pool.begin() + static_cast<std::ptrdiff_t>(pos), admitted);
      expanded.insert(expanded.begin() + static_cast<std::ptrdiff_t>(pos), 0);
      cursor = std::min(cursor, pos);
      if (pool.size() > ef) {
        const Candidate evicted = pool.back();
        const bool evicted_unexpanded = expanded.back() == 0;
        pool.pop_back();
        expanded.pop_back();
        const float max_distance = pool.back().distance;
        if (!ties.empty() && ties.front().distance != max_distance) {
          ties.clear();
        }
        if (evicted_unexpanded && evicted.distance == max_distance) {
          ties.push_back(evicted);
        }
      }
    }
    while (cursor < pool.size() && expanded[cursor] != 0) ++cursor;
  }
  return Status::OK();
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    uint32_t base, const std::vector<Candidate>& candidates,
    size_t max_neighbors) const {
  // Heuristic of [29], Algorithm 4: take a candidate only if it is closer to
  // the base point than to every already-selected neighbor; this keeps the
  // graph navigable by spreading edges across directions. Pruned candidates
  // backfill remaining slots (keepPrunedConnections).
  std::vector<uint32_t> selected;
  std::vector<uint32_t> pruned;
  for (const Candidate& c : candidates) {
    if (c.node == base) continue;
    if (selected.size() >= max_neighbors) break;
    bool diverse = true;
    for (uint32_t s : selected) {
      float d_cs = ExactDistance(vectors_.Row(c.node), s);
      if (d_cs < c.distance) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      selected.push_back(c.node);
    } else {
      pruned.push_back(c.node);
    }
  }
  for (uint32_t p : pruned) {
    if (selected.size() >= max_neighbors) break;
    selected.push_back(p);
  }
  return selected;
}

void HnswIndex::Connect(uint32_t from, uint32_t to, int level) {
  std::span<const uint32_t> list = Neighbors(from, level);
  if (std::find(list.begin(), list.end(), to) != list.end()) return;
  std::vector<uint32_t> grown(list.begin(), list.end());
  grown.push_back(to);
  const size_t cap = MaxDegree(level);
  if (grown.size() > cap) {
    // Overflow: re-select the best `cap` neighbors with the heuristic.
    std::vector<Candidate> candidates;
    candidates.reserve(grown.size());
    const float* base_vec = vectors_.Row(from);
    for (uint32_t nb : grown) {
      candidates.push_back({ExactDistance(base_vec, nb), nb});
    }
    std::sort(candidates.begin(), candidates.end());
    grown = SelectNeighbors(from, candidates, cap);
  }
  if (level == 0) {
    uint32_t* row = layer0_.data() + from * layer0_stride_;
    row[0] = static_cast<uint32_t>(grown.size());
    std::copy(grown.begin(), grown.end(), row + 1);
  } else {
    upper_links_[from][level - 1] = std::move(grown);
  }
}

void HnswIndex::InsertNode(uint32_t node, SearchScratch* scratch) {
  const int level = static_cast<int>(upper_links_[node].size());
  if (max_level_ < 0) {
    entry_point_ = node;
    max_level_ = level;
    return;
  }

  auto dist = ExactBatch(vectors_.Row(node), &scratch->stat_dist_comps);
  uint32_t ep = entry_point_;
  for (int l = max_level_; l > level; --l) {
    ep = GreedyClosest(dist, ep, l, scratch);
  }
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    // Null control: construction beams are never budget-bounded, so this
    // cannot fail.
    Status beam_status = SearchLayer(dist, ep, options_.ef_construction, l,
                                     nullptr, scratch);
    MIRA_CHECK(beam_status.ok());
    std::vector<uint32_t> neighbors =
        SelectNeighbors(node, scratch->beam, options_.M);
    for (uint32_t nb : neighbors) {
      Connect(node, nb, l);
      Connect(nb, node, l);
    }
    if (!scratch->beam.empty()) ep = scratch->beam.front().node;
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = node;
  }
}

Status HnswIndex::Build(ThreadPool* pool) {
  // Hold add_mu_ for the whole build: a contract-violating concurrent Add()
  // blocks here and then fails the built_ check instead of appending into a
  // graph mid-construction.
  MutexLock lock(add_mu_);
  if (built_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("hnsw: Build called twice");
  }
  if (ids_.empty()) return Status::FailedPrecondition("hnsw: no vectors added");
  const bool quantized = options_.quantization.has_value();
  if (quantized && options_.metric == vecmath::Metric::kDot) {
    return Status::NotImplemented("hnsw: quantization requires cosine or l2");
  }

  const size_t n = ids_.size();
  // PQ reads only vectors_ (frozen under add_mu_) and writes only pq_ and
  // codes_, which insertion never touches. With a pool it runs on its own
  // thread beside the insertion loop; its ParallelFor calls then come from
  // that thread, never from a pool task.
  auto quantize = [this, pool, n]() -> Status {
    WallTimer timer;
    MIRA_ASSIGN_OR_RETURN(
        auto pq, ProductQuantizer::Train(vectors_, *options_.quantization, pool));
    pq_ = std::move(pq);
    codes_.resize(n * pq_->code_bytes());
    pq_->EncodeBatch(vectors_, codes_.data(), pool);
    pq_build_ms_ = timer.ElapsedMillis();
    return Status::OK();
  };
  std::future<Status> pq_job;
  if (quantized && pool != nullptr) {
    pq_job = std::async(std::launch::async, quantize);
  }

  layer0_stride_ = 1 + MaxDegree(0);
  layer0_.assign(n * layer0_stride_, 0);
  upper_links_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    upper_links_[i].resize(static_cast<size_t>(DrawLevel()));
  }
  // Build is single-threaded; one scratch serves every insertion, so the
  // whole construction reuses the same visited/pool storage.
  SearchScratch scratch(n, MaxDegree(0), 0);
  for (size_t i = 0; i < n; ++i) {
    InsertNode(static_cast<uint32_t>(i), &scratch);
  }
  if (pq_job.valid()) {
    MIRA_RETURN_NOT_OK(pq_job.get());
  } else if (quantized) {
    MIRA_RETURN_NOT_OK(quantize());
  }

  // Release store pairs with the acquire load in Search(): observing
  // built_ == true implies observing the completed graph.
  built_.store(true, std::memory_order_release);
  return Status::OK();
}

Result<std::vector<vecmath::ScoredId>> HnswIndex::Search(
    const vecmath::Vec& query, const SearchParams& params) const {
  if (!built_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("hnsw: Build() not called");
  }
  if (query.size() != vectors_.cols()) {
    return Status::InvalidArgument("hnsw: query dim mismatch");
  }
  // One unconditional entry check: the beam's amortized check fires only
  // every kControlPopStride pops, which a small graph may never reach — a
  // pre-expired budget must still surface before any traversal.
  if (params.control != nullptr) {
    MIRA_RETURN_NOT_OK(params.control->Check("hnsw.search"));
  }
  vecmath::Vec q = options_.metric == vecmath::Metric::kCosine
                       ? vecmath::Normalized(query)
                       : query;
  size_t ef = std::max(params.ef == 0 ? options_.ef_search : params.ef, params.k);

  obs::TraceSpan span("hnsw.search");
  std::unique_ptr<SearchScratch> scratch = AcquireScratch();
  SearchScratch* s = scratch.get();
  s->stat_dist_comps = 0;
  s->stat_adc_decoded = 0;
  s->stat_popped = 0;
  // Greedy upper-layer descent is O(log n) hops — below the amortization
  // stride, so only the layer-0 beam is budget-checked.
  auto traverse = [&](const auto& dist) {
    uint32_t ep = entry_point_;
    for (int l = max_level_; l >= 1; --l) ep = GreedyClosest(dist, ep, l, s);
    return SearchLayer(dist, ep, ef, 0, params.control, s);
  };
  Status beam_status;
  if (pq_.has_value()) {
    // Quantized traversal: greedy descent and the layer-0 beam both run on
    // ADC lookups; only the final beam is rescored exactly.
    obs::TraceSpan adc_span("anns.pq_adc");
    pq_->ComputeDistanceTable(q, &s->table);
    // Gather each batch's codes contiguous, then score them eight at a time:
    // independent add chains instead of one serial chain per code.
    const size_t bytes = pq_->code_bytes();
    auto adc = [this, bytes, s](const uint32_t* nodes, size_t count,
                                float* out) {
      uint8_t* codes = s->gathered_codes.data();
      s->stat_adc_decoded += count;
      for (size_t i = 0; i < count; ++i) {
        std::memcpy(codes + i * bytes, codes_.data() + nodes[i] * bytes, bytes);
      }
      pq_->AdcDistanceBatch(s->table, codes, count, out);
    };
    beam_status = traverse(adc);
    if (beam_status.ok()) {
      adc_span.AddCounter("codes_decoded",
                          static_cast<int64_t>(s->stat_adc_decoded));
      adc_span.Finish();
      // Rescore the beam with exact distances, fetching the next row while
      // scoring the current one.
      std::vector<Candidate>& beam = s->beam;
      for (size_t i = 0; i < beam.size(); ++i) {
        if (i + 1 < beam.size()) PrefetchRow(beam[i + 1].node);
        beam[i].distance = ExactDistance(q.data(), beam[i].node);
      }
      s->stat_dist_comps += beam.size();
      std::sort(beam.begin(), beam.end());
      span.AddCounter("rescored", static_cast<int64_t>(beam.size()));
    }
  } else {
    beam_status = traverse(ExactBatch(q.data(), &s->stat_dist_comps));
  }
  if (!beam_status.ok()) {
    ReleaseScratch(std::move(scratch));
    return beam_status;
  }
  span.AddCounter("ef", static_cast<int64_t>(ef));
  span.AddCounter("dist_comps", static_cast<int64_t>(s->stat_dist_comps));
  if (pq_.has_value()) {
    span.AddCounter("adc_decoded",
                    static_cast<int64_t>(s->stat_adc_decoded));
  }
  span.AddCounter("popped", static_cast<int64_t>(s->stat_popped));
  if constexpr (obs::kObsEnabled) {
    static obs::Counter& searches_metric =
        obs::MetricRegistry::Global().GetCounter("mira.hnsw.searches");
    static obs::Counter& dist_metric =
        obs::MetricRegistry::Global().GetCounter("mira.hnsw.dist_comps");
    searches_metric.Increment();
    dist_metric.Add(s->stat_dist_comps + s->stat_adc_decoded);
  }

  const std::vector<Candidate>& beam = s->beam;
  std::vector<vecmath::ScoredId> out;
  out.reserve(std::min(params.k, beam.size()));
  for (size_t i = 0; i < beam.size() && i < params.k; ++i) {
    out.push_back({ids_[beam[i].node], OutputSimilarity(beam[i].distance)});
  }
  ReleaseScratch(std::move(scratch));
  return out;
}

size_t HnswIndex::Degree(uint32_t node, int level) const {
  MIRA_CHECK(node < upper_links_.size());
  const bool on_level =
      level >= 0 && static_cast<size_t>(level) <= upper_links_[node].size();
  return on_level ? Neighbors(node, level).size() : 0;
}

MemoryStats HnswIndex::MemoryUsage() const {
  // Stats collectors poll this while Add() may still be appending; the lock
  // makes the mid-add-phase read race-free. Post-build it is uncontended.
  MutexLock lock(add_mu_);
  MemoryStats stats;
  stats.vectors_bytes = vectors_.data().size() * sizeof(float);
  stats.ids_bytes = ids_.size() * sizeof(uint64_t);
  stats.codes_bytes = codes_.size();
  if (pq_) stats.codebook_bytes = pq_->codebook_bytes();
  stats.graph_bytes = layer0_.size() * sizeof(uint32_t);
  for (const auto& node : upper_links_) {
    for (const auto& level : node) {
      stats.graph_bytes += level.size() * sizeof(uint32_t);
    }
  }
  return stats;
}

}  // namespace mira::index
