#include "cluster/hdbscan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "vecmath/simd.h"
#include "vecmath/top_k.h"
#include "vecmath/vector_ops.h"

namespace mira::cluster {

using internal::MstEdge;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One row of the condensed tree: `child` is either a cluster id (when
// child_is_cluster) or a point row index.
struct CondensedRow {
  int32_t parent;
  int64_t child;
  bool child_is_cluster;
  double lambda;
  size_t size;
};

// Single-linkage dendrogram in scipy layout: merge i creates node n+i with
// two children (points are 0..n-1), a merge weight and a subtree size.
struct Dendrogram {
  std::vector<int64_t> left;
  std::vector<int64_t> right;
  std::vector<double> weight;
  std::vector<size_t> size;  // of merged node
  size_t n = 0;

  size_t SizeOf(int64_t node) const {
    return node < static_cast<int64_t>(n) ? 1 : size[node - n];
  }
};

class UnionFind {
 public:
  explicit UnionFind(size_t slots) : parent_(slots) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int64_t Find(int64_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Attach(int64_t child_root, int64_t new_root) {
    parent_[child_root] = new_root;
  }

 private:
  std::vector<int64_t> parent_;
};

Dendrogram SingleLinkage(std::vector<MstEdge> edges, size_t n) {
  std::sort(edges.begin(), edges.end(),
            [](const MstEdge& a, const MstEdge& b) { return a.weight < b.weight; });
  Dendrogram tree;
  tree.n = n;
  tree.left.reserve(edges.size());
  UnionFind uf(2 * n - 1);
  std::vector<int64_t> component_node(2 * n - 1);
  std::iota(component_node.begin(), component_node.end(), 0);

  for (size_t i = 0; i < edges.size(); ++i) {
    int64_t ra = component_node[uf.Find(edges[i].a)];
    int64_t rb = component_node[uf.Find(edges[i].b)];
    int64_t node = static_cast<int64_t>(n + i);
    tree.left.push_back(ra);
    tree.right.push_back(rb);
    tree.weight.push_back(edges[i].weight);
    tree.size.push_back(tree.SizeOf(ra) + tree.SizeOf(rb));
    uf.Attach(uf.Find(edges[i].a), node);
    uf.Attach(uf.Find(edges[i].b), node);
    component_node[node] = node;
  }
  return tree;
}

// Collects the point leaves under a dendrogram node.
void CollectLeaves(const Dendrogram& tree, int64_t node,
                   std::vector<size_t>* out) {
  std::vector<int64_t> stack = {node};
  while (!stack.empty()) {
    int64_t cur = stack.back();
    stack.pop_back();
    if (cur < static_cast<int64_t>(tree.n)) {
      out->push_back(static_cast<size_t>(cur));
    } else {
      stack.push_back(tree.left[cur - tree.n]);
      stack.push_back(tree.right[cur - tree.n]);
    }
  }
}

// Condenses the dendrogram: subtrees smaller than min_cluster_size fall out
// of their parent cluster as points; larger splits create child clusters.
std::vector<CondensedRow> CondenseTree(const Dendrogram& tree,
                                       size_t min_cluster_size,
                                       int32_t* num_condensed_clusters) {
  std::vector<CondensedRow> rows;
  *num_condensed_clusters = 1;  // cluster 0 = root
  const size_t n = tree.n;
  if (n == 0) return rows;
  if (tree.left.empty()) {
    // Single point corpus: it is noise at the root.
    return rows;
  }

  int64_t root = static_cast<int64_t>(n + tree.left.size() - 1);
  // relabel[slt_node] = condensed cluster that subtree currently belongs to.
  std::vector<int32_t> relabel(2 * n - 1, -1);
  relabel[root] = 0;

  std::vector<int64_t> stack = {root};
  std::vector<size_t> leaves;
  while (!stack.empty()) {
    int64_t node = stack.back();
    stack.pop_back();
    if (node < static_cast<int64_t>(n)) continue;  // leaf: handled by parent
    int32_t cluster = relabel[node];
    MIRA_DCHECK(cluster >= 0);
    size_t idx = node - n;
    double w = tree.weight[idx];
    double lambda = w > 0.0 ? 1.0 / w : kInf;
    int64_t left = tree.left[idx];
    int64_t right = tree.right[idx];
    size_t left_size = tree.SizeOf(left);
    size_t right_size = tree.SizeOf(right);

    if (left_size >= min_cluster_size && right_size >= min_cluster_size) {
      int32_t lc = (*num_condensed_clusters)++;
      int32_t rc = (*num_condensed_clusters)++;
      rows.push_back({cluster, lc, true, lambda, left_size});
      rows.push_back({cluster, rc, true, lambda, right_size});
      relabel[left] = lc;
      relabel[right] = rc;
      stack.push_back(left);
      stack.push_back(right);
    } else if (left_size < min_cluster_size &&
               right_size < min_cluster_size) {
      leaves.clear();
      CollectLeaves(tree, left, &leaves);
      CollectLeaves(tree, right, &leaves);
      for (size_t p : leaves) {
        rows.push_back({cluster, static_cast<int64_t>(p), false, lambda, 1});
      }
    } else if (left_size < min_cluster_size) {
      leaves.clear();
      CollectLeaves(tree, left, &leaves);
      for (size_t p : leaves) {
        rows.push_back({cluster, static_cast<int64_t>(p), false, lambda, 1});
      }
      relabel[right] = cluster;
      stack.push_back(right);
    } else {
      leaves.clear();
      CollectLeaves(tree, right, &leaves);
      for (size_t p : leaves) {
        rows.push_back({cluster, static_cast<int64_t>(p), false, lambda, 1});
      }
      relabel[left] = cluster;
      stack.push_back(left);
    }
  }
  return rows;
}

}  // namespace

size_t HdbscanResult::num_noise() const {
  size_t count = 0;
  for (int32_t label : labels) {
    if (label == kNoise) ++count;
  }
  return count;
}

namespace internal {

std::vector<double> CoreDistances(const vecmath::Matrix& data, size_t k,
                                  ThreadPool* pool) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  std::vector<double> core(n, 0.0);
  if (n <= 1) return core;
  k = std::min(k, n - 1);
  // The points sorted by first coordinate (ties by id), their rows copied in
  // that order so a sweep reads its neighbours contiguously.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&data](uint32_t a, uint32_t b) {
    const float xa = data.At(a, 0);
    const float xb = data.At(b, 0);
    return xa < xb || (xa == xb && a < b);
  });
  std::vector<float> sorted(n * d);
  for (size_t p = 0; p < n; ++p) {
    std::copy(data.Row(order[p]), data.Row(order[p]) + d,
              sorted.data() + p * d);
  }
  // Each point sweeps outward from its place, nearer side first, keeping the
  // k smallest scalar-reference squared distances by running top-k over
  // negated distances (the k-th smallest float is one value, whatever the
  // visiting order). Once the top-k is full, the sweep ends at the first
  // point whose first-coordinate gap g alone puts it past the k-th: every
  // later point is farther in that coordinate. The kernel's distance is at
  // least its first term fl(fl(g)^2), which can fall below g^2 by the
  // rounding of the difference and of the square (a relative 2^-24 each, or
  // 2^-149 below FLT_MIN); the margin covers that, so a point whose
  // difference rounds down is still scanned. x -> sqrt(double(x)) is
  // monotone, so the root of the k-th smallest squared distance is the k-th
  // smallest distance exactly. Points are independent; blocks of them run on
  // the pool.
  constexpr double kGapShrink = 1.0 - 0x1p-22;
  constexpr double kGapSlack = 0x1p-140;
  constexpr size_t kBlockPoints = 256;
  ParallelFor(pool, 0, (n + kBlockPoints - 1) / kBlockPoints, [&](size_t block) {
    const size_t end = std::min(n, (block + 1) * kBlockPoints);
    for (size_t p = block * kBlockPoints; p < end; ++p) {
      const float* row = sorted.data() + p * d;
      const double x = row[0];
      vecmath::TopK nearest(k);
      size_t left = p;       // the next left point is left - 1
      size_t right = p + 1;  // the next right point is right
      while (left > 0 || right < n) {
        const double left_gap =
            left > 0 ? x - static_cast<double>(sorted[(left - 1) * d]) : kInf;
        const double right_gap =
            right < n ? static_cast<double>(sorted[right * d]) - x : kInf;
        const bool go_left = left_gap <= right_gap;
        const double gap = go_left ? left_gap : right_gap;
        if (nearest.full() && gap * gap * kGapShrink - kGapSlack >
                                  static_cast<double>(-nearest.WorstScore())) {
          break;
        }
        const size_t j = go_left ? --left : right++;
        nearest.Push(j, -vecmath::ScalarSquaredL2(row, sorted.data() + j * d, d));
      }
      core[order[p]] = std::sqrt(static_cast<double>(-nearest.WorstScore()));
    }
  });
  return core;
}

std::vector<MstEdge> MutualReachabilityMst(const vecmath::Matrix& data,
                                           const std::vector<double>& core) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);

  // The points outside the tree, compacted: slot r holds point id[r], a
  // copy of its row, its core distance, and its best mutual reachability to
  // the tree so far with the tree point that gave it. A point that joins
  // the tree is swap-removed, so each step is one batch over the remaining
  // rows and one fused relax + argmin pass.
  size_t remaining = n - 1;
  std::vector<uint32_t> id(remaining);
  std::vector<float> rows(remaining * d);
  std::vector<double> rem_core(remaining);
  std::vector<double> best(remaining, kInf);
  std::vector<uint32_t> from(remaining, 0);
  std::vector<float> dist(remaining);
  for (size_t r = 0; r < remaining; ++r) {
    id[r] = static_cast<uint32_t>(r + 1);
    std::copy(data.Row(r + 1), data.Row(r + 1) + d, rows.data() + r * d);
    rem_core[r] = core[r + 1];
  }
  uint32_t current = 0;
  while (remaining > 0) {
    vecmath::ScalarSquaredL2Batch(data.Row(current), rows.data(), remaining,
                                  d, dist.data());
    const double core_current = core[current];
    double min_w = kInf;
    size_t pick = 0;
    uint32_t pick_id = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < remaining; ++r) {
      const double mr = std::max(
          {core_current, rem_core[r], std::sqrt(static_cast<double>(dist[r]))});
      if (mr < best[r]) {
        best[r] = mr;
        from[r] = current;
      }
      if (best[r] < min_w || (best[r] == min_w && id[r] < pick_id)) {
        min_w = best[r];
        pick = r;
        pick_id = id[r];
      }
    }
    edges.push_back({min_w, from[pick], pick_id});
    current = pick_id;
    --remaining;
    id[pick] = id[remaining];
    rem_core[pick] = rem_core[remaining];
    best[pick] = best[remaining];
    from[pick] = from[remaining];
    std::copy(rows.data() + remaining * d, rows.data() + (remaining + 1) * d,
              rows.data() + pick * d);
  }
  return edges;
}

HdbscanResult ClustersFromMst(std::vector<MstEdge> edges, size_t n,
                              size_t min_cluster_size) {
  HdbscanResult result;
  result.labels.assign(n, kNoise);
  Dendrogram tree = SingleLinkage(std::move(edges), n);

  int32_t num_clusters = 0;
  std::vector<CondensedRow> rows =
      CondenseTree(tree, min_cluster_size, &num_clusters);

  // Stability: sum over rows leaving cluster c of (lambda - lambda_birth(c)).
  std::vector<double> birth(num_clusters, 0.0);
  std::vector<int32_t> parent_of(num_clusters, -1);
  for (const auto& row : rows) {
    if (row.child_is_cluster) {
      birth[row.child] = row.lambda;
      parent_of[row.child] = row.parent;
    }
  }
  std::vector<double> stability(num_clusters, 0.0);
  for (const auto& row : rows) {
    double lambda = std::isinf(row.lambda) ? birth[row.parent] : row.lambda;
    stability[row.parent] +=
        (lambda - birth[row.parent]) * static_cast<double>(row.size);
  }

  // Excess-of-mass selection, leaves first (children always have larger ids
  // than their parents by construction). Root (0) is never selected.
  std::vector<std::vector<int32_t>> children(num_clusters);
  for (int32_t c = 1; c < num_clusters; ++c) {
    children[parent_of[c]].push_back(c);
  }
  std::vector<bool> selected(num_clusters, false);
  for (int32_t c = num_clusters - 1; c >= 1; --c) {
    double child_sum = 0.0;
    for (int32_t ch : children[c]) child_sum += stability[ch];
    if (children[c].empty() || stability[c] >= child_sum) {
      selected[c] = true;
      // Unselect all descendants.
      std::vector<int32_t> stack(children[c]);
      while (!stack.empty()) {
        int32_t d = stack.back();
        stack.pop_back();
        selected[d] = false;
        for (int32_t ch : children[d]) stack.push_back(ch);
      }
    } else {
      stability[c] = child_sum;
    }
  }

  // Label points: a point belongs to the nearest selected ancestor of the
  // cluster it fell out of (if any); otherwise it is noise.
  std::vector<int32_t> nearest_selected(num_clusters, -1);
  for (int32_t c = 1; c < num_clusters; ++c) {  // parents precede children
    if (selected[c]) {
      nearest_selected[c] = c;
    } else {
      nearest_selected[c] =
          parent_of[c] >= 0 ? nearest_selected[parent_of[c]] : -1;
    }
  }

  std::vector<int32_t> flat_label(num_clusters, -1);
  for (const auto& row : rows) {
    if (row.child_is_cluster) continue;
    int32_t owner = nearest_selected[row.parent];
    if (owner < 0) continue;
    if (flat_label[owner] < 0) {
      flat_label[owner] = static_cast<int32_t>(result.clusters.size());
      result.clusters.emplace_back();
      result.clusters.back().stability = stability[owner];
    }
    int32_t label = flat_label[owner];
    result.labels[row.child] = label;
    result.clusters[label].members.push_back(static_cast<size_t>(row.child));
  }
  for (auto& cluster : result.clusters) {
    std::sort(cluster.members.begin(), cluster.members.end());
  }
  return result;
}

}  // namespace internal

Result<HdbscanResult> Hdbscan(const vecmath::Matrix& data,
                              const HdbscanOptions& options,
                              ThreadPool* pool) {
  if (options.min_cluster_size < 2) {
    return Status::InvalidArgument("hdbscan: min_cluster_size must be >= 2");
  }
  const size_t n = data.rows();
  if (n < options.min_cluster_size) {  // everything is noise
    HdbscanResult result;
    result.labels.assign(n, kNoise);
    return result;
  }
  // The core-distance sweep sorts by coordinate, which needs an order.
  for (float x : data.data()) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("hdbscan: non-finite coordinate");
    }
  }
  size_t min_samples =
      options.min_samples == 0 ? options.min_cluster_size : options.min_samples;
  std::vector<double> core = internal::CoreDistances(data, min_samples, pool);
  return internal::ClustersFromMst(internal::MutualReachabilityMst(data, core),
                                   n, options.min_cluster_size);
}

std::vector<size_t> ComputeMedoids(const vecmath::Matrix& data,
                                   const HdbscanResult& result) {
  std::vector<size_t> medoids;
  medoids.reserve(result.clusters.size());
  const size_t d = data.cols();
  for (const auto& cluster : result.clusters) {
    double best_total = kInf;
    size_t best = cluster.members.empty() ? 0 : cluster.members.front();
    for (size_t i : cluster.members) {
      double total = 0.0;
      for (size_t j : cluster.members) {
        if (i == j) continue;
        total += std::sqrt(static_cast<double>(
            vecmath::ScalarSquaredL2(data.Row(i), data.Row(j), d)));
      }
      if (total < best_total) {
        best_total = total;
        best = i;
      }
    }
    medoids.push_back(best);
  }
  return medoids;
}

}  // namespace mira::cluster
