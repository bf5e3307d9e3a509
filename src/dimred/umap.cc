#include "dimred/umap.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "dimred/pca.h"
#include "vecmath/top_k.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::dimred {

namespace {

struct Edge {
  uint32_t from;
  uint32_t to;
  float weight;
};

constexpr float kSmoothKTolerance = 1e-5f;
constexpr size_t kSmoothKIterations = 64;
constexpr float kMinKDistScale = 1e-3f;

// Solves sigma_i by bisection so that sum_j exp(-max(0, d_ij - rho_i) /
// sigma_i) = log2(k) (umap-learn's smooth_knn_dist).
void SmoothKnnDist(const std::vector<float>& dists, float* rho, float* sigma) {
  const size_t k = dists.size();
  float target = std::log2(static_cast<float>(k));

  *rho = 0.f;
  for (float d : dists) {
    if (d > 0.f) {
      *rho = d;
      break;
    }
  }

  float lo = 0.f;
  float hi = std::numeric_limits<float>::max();
  float mid = 1.0f;
  for (size_t iter = 0; iter < kSmoothKIterations; ++iter) {
    float psum = 0.f;
    for (float d : dists) {
      float adj = d - *rho;
      psum += adj > 0.f ? std::exp(-adj / mid) : 1.0f;
    }
    if (std::fabs(psum - target) < kSmoothKTolerance) break;
    if (psum > target) {
      hi = mid;
      mid = (lo + hi) / 2.0f;
    } else {
      lo = mid;
      mid = hi == std::numeric_limits<float>::max() ? mid * 2.0f
                                                    : (lo + hi) / 2.0f;
    }
  }
  *sigma = mid;

  // Guard against degenerate neighborhoods (all-identical points).
  float mean_dist = 0.f;
  for (float d : dists) mean_dist += d;
  mean_dist /= static_cast<float>(k);
  if (*sigma < kMinKDistScale * mean_dist) *sigma = kMinKDistScale * mean_dist;
  if (*sigma <= 0.f) *sigma = 1.0f;
}

}  // namespace

namespace internal {

KnnGraph ExactKnn(const vecmath::RowsView& data, size_t k, ThreadPool* pool) {
  const vecmath::Matrix& rows = data.matrix();
  const size_t n = data.rows();
  const size_t m = rows.rows();
  const size_t dim = rows.cols();
  KnnGraph graph;
  graph.k = k;
  graph.ids.resize(n * k);
  graph.sq_dists.resize(n * k);
  if (k == 0) return graph;

  // The points that read each row, ascending: row r's are
  // points[first[r], first[r + 1]). A row no point reads is skipped.
  std::vector<uint32_t> first(m + 1, 0);
  for (size_t i = 0; i < n; ++i) ++first[data.MatrixRow(i) + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<uint32_t> points(n);
  {
    std::vector<uint32_t> next(first.begin(), first.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      points[next[data.MatrixRow(i)]++] = static_cast<uint32_t>(i);
    }
  }
  auto copies = [&first](size_t r) { return first[r + 1] - first[r]; };

  // All copies of a row share one list of the other points by (distance,
  // point id), and each copy drops only itself from it, so the first k + 1
  // points of that list serve them all. The k + 1 nearest rows cover at
  // least k + 1 points. Each block of query rows is scored against blocks of
  // rows that stay in cache, with one tile of distances per task; a running
  // top-k over negated distances keeps each query's nearest rows.
  constexpr size_t kQueryBlock = 16;
  constexpr size_t kRowBlock = 256;
  ParallelFor(pool, 0, (m + kQueryBlock - 1) / kQueryBlock, [&](size_t block) {
    const size_t q_begin = block * kQueryBlock;
    const size_t q_end = std::min(m, q_begin + kQueryBlock);
    std::vector<float> tile(kQueryBlock * kRowBlock);
    std::vector<vecmath::TopK> nearest;
    for (size_t q = q_begin; q < q_end; ++q) {
      nearest.emplace_back(copies(q) == 0 ? 0 : k + 1);
    }
    // The nearest distance among rows the top-k let go: a row tied with the
    // boundary may be among them.
    std::vector<float> min_dropped(q_end - q_begin,
                                   std::numeric_limits<float>::infinity());
    for (size_t r_begin = 0; r_begin < m; r_begin += kRowBlock) {
      const size_t r_end = std::min(m, r_begin + kRowBlock);
      vecmath::ScalarSquaredL2Tile(rows.Row(q_begin), q_end - q_begin,
                                   rows.Row(r_begin), r_end - r_begin, dim,
                                   tile.data());
      for (size_t q = q_begin; q < q_end; ++q) {
        if (copies(q) == 0) continue;
        vecmath::TopK& top = nearest[q - q_begin];
        const float* dist = tile.data() + (q - q_begin) * (r_end - r_begin);
        for (size_t r = r_begin; r < r_end; ++r) {
          if (copies(r) == 0) continue;
          const float d = dist[r - r_begin];
          if (top.full()) {
            // Of the pushed row and the worst kept one, the row that leaves
            // is at the larger distance.
            const float worst = -top.WorstScore();
            float& dropped = min_dropped[q - q_begin];
            dropped = std::min(dropped, std::max(d, worst));
            if (d > worst) continue;
          }
          top.Push(r, -d);
        }
      }
    }

    std::vector<std::pair<float, uint32_t>> list;
    for (size_t q = q_begin; q < q_end; ++q) {
      if (copies(q) == 0) continue;
      std::vector<vecmath::ScoredId> kept = nearest[q - q_begin].Take();
      // The boundary: the distance at which the kept rows cover k + 1 points.
      // Past it no row is needed; at it, every tied row is.
      float boundary = 0.f;
      size_t covered = 0;
      for (const vecmath::ScoredId& row : kept) {
        covered += copies(row.id);
        if (covered >= k + 1) {
          boundary = -row.score;
          break;
        }
      }
      while (-kept.back().score > boundary) kept.pop_back();
      if (min_dropped[q - q_begin] == boundary) {
        while (!kept.empty() && -kept.back().score == boundary) {
          kept.pop_back();
        }
        for (size_t r = 0; r < m; ++r) {
          if (copies(r) > 0 && vecmath::ScalarSquaredL2(rows.Row(q), rows.Row(r),
                                                        dim) == boundary) {
            kept.push_back({r, -boundary});
          }
        }
      }

      list.clear();
      for (const vecmath::ScoredId& row : kept) {
        for (uint32_t p = first[row.id]; p < first[row.id + 1]; ++p) {
          list.emplace_back(-row.score, points[p]);
        }
      }
      std::sort(list.begin(), list.end());
      for (uint32_t p = first[q]; p < first[q + 1]; ++p) {
        const uint32_t self = points[p];
        size_t out = static_cast<size_t>(self) * k;
        const size_t end = out + k;
        for (const auto& [sq_dist, point] : list) {
          if (point == self) continue;
          graph.ids[out] = point;
          graph.sq_dists[out] = sq_dist;
          if (++out == end) break;
        }
      }
    }
  });
  return graph;
}

}  // namespace internal

void FitAbParams(float min_dist, float spread, float* a, float* b) {
  // Least-squares fit of phi(x) = 1/(1 + a x^(2b)) to the target curve
  //   psi(x) = 1                         for x <= min_dist
  //          = exp(-(x - min_dist)/spread) otherwise
  // over x in (0, 3*spread]. Coarse grid search then local refinement —
  // deterministic and dependency-free (umap-learn uses scipy curve_fit).
  constexpr size_t kSamples = 300;
  std::vector<float> xs(kSamples), ys(kSamples);
  for (size_t i = 0; i < kSamples; ++i) {
    float x = 3.0f * spread * static_cast<float>(i + 1) / kSamples;
    xs[i] = x;
    ys[i] = x <= min_dist ? 1.0f : std::exp(-(x - min_dist) / spread);
  }
  auto loss = [&](float ca, float cb) {
    float total = 0.f;
    for (size_t i = 0; i < kSamples; ++i) {
      float phi = 1.0f / (1.0f + ca * std::pow(xs[i], 2.0f * cb));
      float diff = phi - ys[i];
      total += diff * diff;
    }
    return total;
  };

  float best_a = 1.0f, best_b = 1.0f;
  float best = std::numeric_limits<float>::max();
  for (float ca = 0.2f; ca <= 10.0f; ca += 0.2f) {
    for (float cb = 0.2f; cb <= 2.5f; cb += 0.05f) {
      float l = loss(ca, cb);
      if (l < best) {
        best = l;
        best_a = ca;
        best_b = cb;
      }
    }
  }
  // Local refinement by coordinate descent with shrinking steps.
  float step_a = 0.1f, step_b = 0.025f;
  for (int round = 0; round < 40; ++round) {
    bool moved = false;
    for (float da : {-step_a, step_a}) {
      float l = loss(best_a + da, best_b);
      if (best_a + da > 0.f && l < best) {
        best = l;
        best_a += da;
        moved = true;
      }
    }
    for (float db : {-step_b, step_b}) {
      float l = loss(best_a, best_b + db);
      if (best_b + db > 0.f && l < best) {
        best = l;
        best_b += db;
        moved = true;
      }
    }
    if (!moved) {
      step_a *= 0.5f;
      step_b *= 0.5f;
    }
  }
  *a = best_a;
  *b = best_b;
}

Result<UmapModel> FitUmap(const vecmath::RowsView& data,
                          const UmapOptions& options, ThreadPool* pool) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  if (n < 4) return Status::InvalidArgument("umap: need at least 4 rows");
  if (options.target_dim == 0 || options.target_dim > d) {
    return Status::InvalidArgument(
        StrFormat("umap: target_dim %zu out of range (input dim %zu)",
                  options.target_dim, d));
  }
  const size_t k = std::min(options.n_neighbors, n - 1);

  // --- 4 & 5. curve parameters and PCA init, scaled to a ~10-unit box ---
  // Both depend only on `data` and the options, so with a pool they run on
  // their own thread while the pool scans for the kNN graph.
  auto fit_initial_layout = [&data, &options]() -> Result<UmapModel> {
    UmapModel model;
    FitAbParams(options.min_dist, options.spread, &model.a, &model.b);
    PcaOptions pca_opts;
    pca_opts.target_dim = options.target_dim;
    pca_opts.seed = options.seed ^ 0xBEEF;
    MIRA_ASSIGN_OR_RETURN(PcaModel pca, FitPca(data, pca_opts));
    model.embedding = pca.TransformAll(data);
    float max_abs = 1e-9f;
    for (float x : model.embedding.data()) {
      max_abs = std::max(max_abs, std::fabs(x));
    }
    vecmath::ScaleInPlace(model.embedding.data().data(), 10.0f / max_abs,
                          model.embedding.data().size());
    return model;
  };
  std::future<Result<UmapModel>> initial_layout;
  if (pool != nullptr) {
    initial_layout = std::async(std::launch::async, fit_initial_layout);
  }

  // --- 1. exact kNN graph ---
  const internal::KnnGraph knn = internal::ExactKnn(data, k, pool);

  // --- 2 & 3. fuzzy simplicial set ---
  // Directed membership strengths, then symmetrize: w = u + v - u*v.
  std::vector<std::unordered_map<uint32_t, float>> directed(n);
  std::vector<float> dists(k);
  for (size_t i = 0; i < n && k > 0; ++i) {
    for (size_t j = 0; j < k; ++j) dists[j] = std::sqrt(knn.sq_dists[i * k + j]);
    float rho, sigma;
    SmoothKnnDist(dists, &rho, &sigma);
    for (size_t j = 0; j < k; ++j) {
      float adj = dists[j] - rho;
      float w = adj > 0.f ? std::exp(-adj / sigma) : 1.0f;
      directed[i][knn.ids[i * k + j]] = w;
    }
  }
  std::vector<Edge> edges;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, w_ij] : directed[i]) {
      if (j > i) {
        // Forward entry owns the pair; fold in the reverse weight if present.
        float w_ji = 0.f;
        auto it = directed[j].find(static_cast<uint32_t>(i));
        if (it != directed[j].end()) w_ji = it->second;
        float w = w_ij + w_ji - w_ij * w_ji;
        if (w > 0.f) edges.push_back({static_cast<uint32_t>(i), j, w});
      } else if (j < i && directed[j].find(static_cast<uint32_t>(i)) ==
                              directed[j].end()) {
        // Pair seen only in this (backward) direction.
        if (w_ij > 0.f) edges.push_back({j, static_cast<uint32_t>(i), w_ij});
      }
    }
  }

  MIRA_ASSIGN_OR_RETURN(UmapModel model, initial_layout.valid()
                                             ? initial_layout.get()
                                             : fit_initial_layout());

  // --- 6. SGD with negative sampling ---
  float max_w = 0.f;
  for (const Edge& e : edges) max_w = std::max(max_w, e.weight);
  if (max_w <= 0.f) return model;  // fully disconnected; PCA layout stands

  std::vector<float> epochs_per_sample(edges.size());
  std::vector<float> next_due(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    epochs_per_sample[e] = max_w / edges[e].weight;
    next_due[e] = epochs_per_sample[e];
  }

  Rng rng(options.seed ^ 0x5EED);
  const float a = model.a;
  const float b = model.b;
  const size_t dim = options.target_dim;
  auto clip = [](float x) { return std::clamp(x, -4.0f, 4.0f); };

  for (size_t epoch = 1; epoch <= options.n_epochs; ++epoch) {
    float alpha = options.learning_rate *
                  (1.0f - static_cast<float>(epoch) / options.n_epochs);
    for (size_t e = 0; e < edges.size(); ++e) {
      if (next_due[e] > static_cast<float>(epoch)) continue;
      next_due[e] += epochs_per_sample[e];
      float* yi = model.embedding.Row(edges[e].from);
      float* yj = model.embedding.Row(edges[e].to);

      float dist_sq = vecmath::ScalarSquaredL2(yi, yj, dim);
      if (dist_sq > 0.f) {
        float pd = std::pow(dist_sq, b);
        float coef = (-2.0f * a * b * pd / dist_sq) / (1.0f + a * pd);
        for (size_t c = 0; c < dim; ++c) {
          float g = clip(coef * (yi[c] - yj[c]));
          yi[c] += alpha * g;
          yj[c] -= alpha * g;
        }
      }

      for (size_t s = 0; s < options.negative_sample_rate; ++s) {
        uint32_t other = static_cast<uint32_t>(rng.NextBounded(n));
        if (other == edges[e].from) continue;
        float* yk = model.embedding.Row(other);
        float nd = vecmath::ScalarSquaredL2(yi, yk, dim);
        if (nd <= 0.f) nd = 1e-3f;
        float pd = std::pow(nd, b);
        float coef = (2.0f * b) / ((0.001f + nd) * (1.0f + a * pd));
        for (size_t c = 0; c < dim; ++c) {
          float g = clip(coef * (yi[c] - yk[c]));
          yi[c] += alpha * g;
        }
      }
    }
  }
  return model;
}

}  // namespace mira::dimred
