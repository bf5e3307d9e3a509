#include "index/product_quantizer.h"

#include <algorithm>
#include <limits>

#include "cluster/kmeans.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "vecmath/simd.h"

namespace mira::index {

Result<ProductQuantizer> ProductQuantizer::Train(
    const vecmath::Matrix& training_data, const PqOptions& options,
    ThreadPool* pool) {
  const size_t dim = training_data.cols();
  const size_t m = options.num_subquantizers;
  if (m == 0 || dim % m != 0) {
    return Status::InvalidArgument(
        StrFormat("pq: %zu subquantizers do not divide dim %zu", m, dim));
  }
  constexpr size_t ksub = kCodebookSize;
  size_t n = training_data.rows();

  // Optional training-row subsample.
  std::vector<size_t> train_rows;
  if (options.max_training_rows > 0 && n > options.max_training_rows) {
    Rng sample_rng(options.seed ^ 0x5A4D91E5ULL);
    train_rows =
        sample_rng.SampleWithoutReplacement(n, options.max_training_rows);
    std::sort(train_rows.begin(), train_rows.end());
    n = train_rows.size();
  } else {
    train_rows.resize(n);
    for (size_t i = 0; i < n; ++i) train_rows[i] = i;
  }
  // k-means needs at least as many points as centroids; cap the codebook at
  // the training size if the corpus is tiny (keeps small tests usable).
  const size_t effective_ksub = std::min(ksub, n);
  if (effective_ksub == 0) {
    return Status::InvalidArgument("pq: empty training data");
  }

  ProductQuantizer pq;
  pq.dim_ = dim;
  pq.m_ = m;
  pq.sub_dim_ = dim / m;
  pq.codebooks_.assign(m * ksub * pq.sub_dim_, 0.f);

  // One task per subspace: slice it out, run its k-means, and write its
  // codebook. Tasks share nothing but read-only inputs.
  auto train_subspace = [&](size_t s) -> Status {
    vecmath::Matrix sub(n, pq.sub_dim_);
    for (size_t i = 0; i < n; ++i) {
      const float* row = training_data.Row(train_rows[i]) + s * pq.sub_dim_;
      std::copy(row, row + pq.sub_dim_, sub.Row(i));
    }
    cluster::KMeansOptions km;
    km.num_clusters = effective_ksub;
    km.max_iterations = options.train_iterations;
    km.seed = options.seed + s * 7919;
    MIRA_ASSIGN_OR_RETURN(auto result, cluster::KMeans(sub, km));
    for (size_t c = 0; c < effective_ksub; ++c) {
      float* dst = pq.codebooks_.data() + ((s * ksub) + c) * pq.sub_dim_;
      std::copy(result.centroids.Row(c), result.centroids.Row(c) + pq.sub_dim_,
                dst);
    }
    // Unused codebook slots (tiny training sets) duplicate centroid 0 so any
    // code decodes to something sane.
    for (size_t c = effective_ksub; c < ksub; ++c) {
      float* dst = pq.codebooks_.data() + ((s * ksub) + c) * pq.sub_dim_;
      const float* src = pq.codebooks_.data() + (s * ksub) * pq.sub_dim_;
      std::copy(src, src + pq.sub_dim_, dst);
    }
    return Status::OK();
  };
  MIRA_RETURN_NOT_OK(
      ParallelForCancellable(pool, 0, m, nullptr, train_subspace));
  return pq;
}

void ProductQuantizer::EncodeRow(const float* vector, float* dist,
                                 uint8_t* out) const {
  // The centroids of each subquantizer are contiguous, so nearest-centroid
  // search is one batched distance sweep per subspace.
  for (size_t s = 0; s < m_; ++s) {
    const float* sub = vector + s * sub_dim_;
    const float* base = codebooks_.data() + (s * kCodebookSize) * sub_dim_;
    // Scalar-reference sweep: stored codes must be machine-independent
    // (see vecmath/simd.h); the query-time distance table stays on the
    // active tier.
    vecmath::ScalarSquaredL2Batch(sub, base, kCodebookSize, sub_dim_, dist);
    float best = std::numeric_limits<float>::max();
    size_t best_c = 0;
    for (size_t c = 0; c < kCodebookSize; ++c) {
      if (dist[c] < best) {
        best = dist[c];
        best_c = c;
      }
    }
    out[s] = static_cast<uint8_t>(best_c);
  }
}

std::vector<uint8_t> ProductQuantizer::Encode(const vecmath::Vec& vector) const {
  std::vector<uint8_t> codes(m_);
  std::vector<float> dist(kCodebookSize);
  EncodeRow(vector.data(), dist.data(), codes.data());
  return codes;
}

void ProductQuantizer::EncodeBatch(const vecmath::Matrix& data, uint8_t* out,
                                   ThreadPool* pool) const {
  // Blocks of rows, one scratch each: a block writes whole code rows, so no
  // two tasks share a cache line of `out` for long.
  constexpr size_t kBlockRows = 256;
  const size_t rows = data.rows();
  ParallelFor(pool, 0, (rows + kBlockRows - 1) / kBlockRows, [&](size_t b) {
    std::vector<float> dist(kCodebookSize);
    const size_t end = std::min(rows, (b + 1) * kBlockRows);
    for (size_t i = b * kBlockRows; i < end; ++i) {
      EncodeRow(data.Row(i), dist.data(), out + i * m_);
    }
  });
}

vecmath::Vec ProductQuantizer::Decode(const std::vector<uint8_t>& codes) const {
  vecmath::Vec out(dim_, 0.f);
  for (size_t s = 0; s < m_; ++s) {
    const float* centroid =
        codebooks_.data() + ((s * kCodebookSize) + codes[s]) * sub_dim_;
    std::copy(centroid, centroid + sub_dim_, out.data() + s * sub_dim_);
  }
  return out;
}

std::vector<float> ProductQuantizer::ComputeDistanceTable(
    const vecmath::Vec& query) const {
  std::vector<float> table;
  ComputeDistanceTable(query, &table);
  return table;
}

void ProductQuantizer::ComputeDistanceTable(const vecmath::Vec& query,
                                            std::vector<float>* table) const {
  table->resize(m_ * kCodebookSize);
  for (size_t s = 0; s < m_; ++s) {
    const float* sub = query.data() + s * sub_dim_;
    const float* base = codebooks_.data() + (s * kCodebookSize) * sub_dim_;
    vecmath::SquaredL2Batch(sub, base, kCodebookSize, sub_dim_,
                            table->data() + s * kCodebookSize);
  }
}

float ProductQuantizer::AdcDistance(const std::vector<float>& table,
                                    const uint8_t* codes) const {
  float sum = 0.f;
  for (size_t s = 0; s < m_; ++s) {
    sum += table[s * kCodebookSize + codes[s]];
  }
  return sum;
}

void ProductQuantizer::AdcDistanceBatch(const std::vector<float>& table,
                                        const uint8_t* codes, size_t num_codes,
                                        float* out) const {
  const float* t = table.data();
  size_t i = 0;
  // Eight codes per iteration, one accumulator each: a single code's sum is
  // a serial float-add chain (latency-bound), so only independent chains can
  // saturate the add units — four-wide gains little because out-of-order
  // execution already overlaps adjacent AdcDistance calls that far. Eight
  // chains push the loop to its load-throughput bound (one table load plus
  // one code-byte load per add; wider word loads for the code bytes were
  // measured slower here — the extract arithmetic costs more than the loads
  // it saves). Per-code summation order matches AdcDistance exactly,
  // keeping the batch bitwise identical to the unbatched path.
  for (; i + 8 <= num_codes; i += 8) {
    const uint8_t* c0 = codes + i * m_;
    const uint8_t* c1 = c0 + m_;
    const uint8_t* c2 = c1 + m_;
    const uint8_t* c3 = c2 + m_;
    const uint8_t* c4 = c3 + m_;
    const uint8_t* c5 = c4 + m_;
    const uint8_t* c6 = c5 + m_;
    const uint8_t* c7 = c6 + m_;
    if (i + 16 <= num_codes) {
      __builtin_prefetch(codes + (i + 8) * m_);
      __builtin_prefetch(codes + (i + 12) * m_);
    }
    float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
    float s4 = 0.f, s5 = 0.f, s6 = 0.f, s7 = 0.f;
    const float* ts = t;
    for (size_t s = 0; s < m_; ++s, ts += kCodebookSize) {
      s0 += ts[c0[s]];
      s1 += ts[c1[s]];
      s2 += ts[c2[s]];
      s3 += ts[c3[s]];
      s4 += ts[c4[s]];
      s5 += ts[c5[s]];
      s6 += ts[c6[s]];
      s7 += ts[c7[s]];
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
    out[i + 4] = s4;
    out[i + 5] = s5;
    out[i + 6] = s6;
    out[i + 7] = s7;
  }
  for (; i < num_codes; ++i) {
    out[i] = AdcDistance(table, codes + i * m_);
  }
}

double ProductQuantizer::ReconstructionError(const vecmath::Matrix& data) const {
  if (data.rows() == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    vecmath::Vec row = data.RowVec(i);
    vecmath::Vec rec = Decode(Encode(row));
    total += vecmath::SquaredL2(row, rec);
  }
  return total / static_cast<double>(data.rows());
}

}  // namespace mira::index
