// Runtime-dispatched SIMD kernels behind the vector_ops.h / simd.h API. This
// is the only translation unit in the tree allowed to include raw intrinsic
// headers (tools/mira_lint.py enforces it); every consumer goes through the
// dispatch tables so scalar-only hosts keep working and parity stays testable.
//
// The AVX2 bodies carry `target("avx2,fma")` attributes instead of the whole
// file being built with -mavx2: the compiler may only emit AVX2 instructions
// inside those functions, so the binary still runs on pre-AVX2 CPUs where
// dispatch selects the scalar table.

#include "vecmath/simd.h"

#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define MIRA_SIMD_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define MIRA_SIMD_NEON 1
#endif

namespace mira::vecmath {
namespace simd_internal {

namespace scalar {

// Four partial accumulators give the compiler room to vectorize without
// reassociation flags. The summation order is the contract: DotBatch and
// CosineSimilarity below reproduce it term for term, so the scalar tier is
// bit-for-bit reproducible across the single/batched/fused entry points.
float Dot(const float* a, const float* b, size_t n) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

float SquaredL2(const float* a, const float* b, size_t n) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    float d2 = a[i + 2] - b[i + 2];
    float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

// Single fused pass with three accumulator sets: one read of each vector
// instead of the three passes Dot + Norm + Norm used to make. The per-term
// order matches the separate passes, so results are unchanged.
float CosineSimilarity(const float* a, const float* b, size_t n) {
  float d0 = 0.f, d1 = 0.f, d2 = 0.f, d3 = 0.f;
  float na0 = 0.f, na1 = 0.f, na2 = 0.f, na3 = 0.f;
  float nb0 = 0.f, nb1 = 0.f, nb2 = 0.f, nb3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    d0 += a[i] * b[i];
    d1 += a[i + 1] * b[i + 1];
    d2 += a[i + 2] * b[i + 2];
    d3 += a[i + 3] * b[i + 3];
    na0 += a[i] * a[i];
    na1 += a[i + 1] * a[i + 1];
    na2 += a[i + 2] * a[i + 2];
    na3 += a[i + 3] * a[i + 3];
    nb0 += b[i] * b[i];
    nb1 += b[i + 1] * b[i + 1];
    nb2 += b[i + 2] * b[i + 2];
    nb3 += b[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) {
    d0 += a[i] * b[i];
    na0 += a[i] * a[i];
    nb0 += b[i] * b[i];
  }
  float dot = (d0 + d1) + (d2 + d3);
  float na = std::sqrt((na0 + na1) + (na2 + na3));
  float nb = std::sqrt((nb0 + nb1) + (nb2 + nb3));
  if (na <= 0.f || nb <= 0.f) return 0.f;
  return dot / (na * nb);
}

void Axpy(float* a, const float* b, float scale, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] += scale * b[i];
}

void DotBatch(const float* query, const float* rows, size_t num_rows,
              size_t dim, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = Dot(query, rows + r * dim, dim);
  }
}

void SquaredL2Batch(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = SquaredL2(query, rows + r * dim, dim);
  }
}

}  // namespace scalar

#if defined(MIRA_SIMD_X86)

namespace avx2 {

__attribute__((target("avx2,fma"))) static inline float HSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

__attribute__((target("avx2,fma"))) float Dot(const float* a, const float* b,
                                              size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = HSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) float SquaredL2(const float* a,
                                                    const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = HSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) float CosineSimilarity(const float* a,
                                                           const float* b,
                                                           size_t n) {
  __m256 dot = _mm256_setzero_ps();
  __m256 na = _mm256_setzero_ps();
  __m256 nb = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    dot = _mm256_fmadd_ps(va, vb, dot);
    na = _mm256_fmadd_ps(va, va, na);
    nb = _mm256_fmadd_ps(vb, vb, nb);
  }
  float sd = HSum(dot);
  float sa = HSum(na);
  float sb = HSum(nb);
  for (; i < n; ++i) {
    sd += a[i] * b[i];
    sa += a[i] * a[i];
    sb += b[i] * b[i];
  }
  float norm_a = std::sqrt(sa);
  float norm_b = std::sqrt(sb);
  if (norm_a <= 0.f || norm_b <= 0.f) return 0.f;
  return sd / (norm_a * norm_b);
}

__attribute__((target("avx2,fma"))) void Axpy(float* a, const float* b,
                                              float scale, size_t n) {
  __m256 vs = _mm256_set1_ps(scale);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    va = _mm256_fmadd_ps(vs, _mm256_loadu_ps(b + i), va);
    _mm256_storeu_ps(a + i, va);
  }
  for (; i < n; ++i) a[i] += scale * b[i];
}

// Scans eight rows per iteration with one accumulator per row: the query
// slab is loaded once per 8 lanes and reused across all eight rows (one
// query load amortized over eight FMAs), and the next row group is
// prefetched while the current one is in flight. Eight accumulators plus
// the query and a row temporary stay within the sixteen YMM registers.
__attribute__((target("avx2,fma"))) void DotBatch(const float* query,
                                                  const float* rows,
                                                  size_t num_rows, size_t dim,
                                                  float* out) {
  size_t r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    const float* r4 = r3 + dim;
    const float* r5 = r4 + dim;
    const float* r6 = r5 + dim;
    const float* r7 = r6 + dim;
    if (r + 16 <= num_rows) {
      const float* next = rows + (r + 8) * dim;
      for (size_t p = 0; p < 8; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(next + p * dim),
                     _MM_HINT_T0);
      }
    }
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    __m256 a4 = _mm256_setzero_ps();
    __m256 a5 = _mm256_setzero_ps();
    __m256 a6 = _mm256_setzero_ps();
    __m256 a7 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      __m256 q = _mm256_loadu_ps(query + i);
      a0 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r0 + i), a0);
      a1 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r1 + i), a1);
      a2 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r2 + i), a2);
      a3 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r3 + i), a3);
      a4 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r4 + i), a4);
      a5 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r5 + i), a5);
      a6 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r6 + i), a6);
      a7 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r7 + i), a7);
    }
    float s0 = HSum(a0);
    float s1 = HSum(a1);
    float s2 = HSum(a2);
    float s3 = HSum(a3);
    float s4 = HSum(a4);
    float s5 = HSum(a5);
    float s6 = HSum(a6);
    float s7 = HSum(a7);
    for (; i < dim; ++i) {
      float q = query[i];
      s0 += q * r0[i];
      s1 += q * r1[i];
      s2 += q * r2[i];
      s3 += q * r3[i];
      s4 += q * r4[i];
      s5 += q * r5[i];
      s6 += q * r6[i];
      s7 += q * r7[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
    out[r + 4] = s4;
    out[r + 5] = s5;
    out[r + 6] = s6;
    out[r + 7] = s7;
  }
  for (; r < num_rows; ++r) out[r] = Dot(query, rows + r * dim, dim);
}

__attribute__((target("avx2,fma"))) void SquaredL2Batch(const float* query,
                                                        const float* rows,
                                                        size_t num_rows,
                                                        size_t dim,
                                                        float* out) {
  size_t r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    const float* r4 = r3 + dim;
    const float* r5 = r4 + dim;
    const float* r6 = r5 + dim;
    const float* r7 = r6 + dim;
    if (r + 16 <= num_rows) {
      const float* next = rows + (r + 8) * dim;
      for (size_t p = 0; p < 8; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(next + p * dim),
                     _MM_HINT_T0);
      }
    }
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    __m256 a4 = _mm256_setzero_ps();
    __m256 a5 = _mm256_setzero_ps();
    __m256 a6 = _mm256_setzero_ps();
    __m256 a7 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      __m256 q = _mm256_loadu_ps(query + i);
      __m256 d0 = _mm256_sub_ps(q, _mm256_loadu_ps(r0 + i));
      __m256 d1 = _mm256_sub_ps(q, _mm256_loadu_ps(r1 + i));
      __m256 d2 = _mm256_sub_ps(q, _mm256_loadu_ps(r2 + i));
      __m256 d3 = _mm256_sub_ps(q, _mm256_loadu_ps(r3 + i));
      a0 = _mm256_fmadd_ps(d0, d0, a0);
      a1 = _mm256_fmadd_ps(d1, d1, a1);
      a2 = _mm256_fmadd_ps(d2, d2, a2);
      a3 = _mm256_fmadd_ps(d3, d3, a3);
      __m256 d4 = _mm256_sub_ps(q, _mm256_loadu_ps(r4 + i));
      __m256 d5 = _mm256_sub_ps(q, _mm256_loadu_ps(r5 + i));
      __m256 d6 = _mm256_sub_ps(q, _mm256_loadu_ps(r6 + i));
      __m256 d7 = _mm256_sub_ps(q, _mm256_loadu_ps(r7 + i));
      a4 = _mm256_fmadd_ps(d4, d4, a4);
      a5 = _mm256_fmadd_ps(d5, d5, a5);
      a6 = _mm256_fmadd_ps(d6, d6, a6);
      a7 = _mm256_fmadd_ps(d7, d7, a7);
    }
    float s0 = HSum(a0);
    float s1 = HSum(a1);
    float s2 = HSum(a2);
    float s3 = HSum(a3);
    float s4 = HSum(a4);
    float s5 = HSum(a5);
    float s6 = HSum(a6);
    float s7 = HSum(a7);
    for (; i < dim; ++i) {
      float q = query[i];
      float d0 = q - r0[i];
      float d1 = q - r1[i];
      float d2 = q - r2[i];
      float d3 = q - r3[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
      float d4 = q - r4[i];
      float d5 = q - r5[i];
      float d6 = q - r6[i];
      float d7 = q - r7[i];
      s4 += d4 * d4;
      s5 += d5 * d5;
      s6 += d6 * d6;
      s7 += d7 * d7;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
    out[r + 4] = s4;
    out[r + 5] = s5;
    out[r + 6] = s6;
    out[r + 7] = s7;
  }
  for (; r < num_rows; ++r) out[r] = SquaredL2(query, rows + r * dim, dim);
}

}  // namespace avx2

#elif defined(MIRA_SIMD_NEON)

namespace neon {

static inline float HSum(float32x4_t v) { return vaddvq_f32(v); }

float Dot(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum = HSum(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float SquaredL2(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= n; i += 4) {
    float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  float sum = HSum(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float CosineSimilarity(const float* a, const float* b, size_t n) {
  float32x4_t dot = vdupq_n_f32(0.f);
  float32x4_t na = vdupq_n_f32(0.f);
  float32x4_t nb = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t va = vld1q_f32(a + i);
    float32x4_t vb = vld1q_f32(b + i);
    dot = vfmaq_f32(dot, va, vb);
    na = vfmaq_f32(na, va, va);
    nb = vfmaq_f32(nb, vb, vb);
  }
  float sd = HSum(dot);
  float sa = HSum(na);
  float sb = HSum(nb);
  for (; i < n; ++i) {
    sd += a[i] * b[i];
    sa += a[i] * a[i];
    sb += b[i] * b[i];
  }
  float norm_a = std::sqrt(sa);
  float norm_b = std::sqrt(sb);
  if (norm_a <= 0.f || norm_b <= 0.f) return 0.f;
  return sd / (norm_a * norm_b);
}

void Axpy(float* a, const float* b, float scale, size_t n) {
  float32x4_t vs = vdupq_n_f32(scale);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t va = vld1q_f32(a + i);
    va = vfmaq_f32(va, vs, vld1q_f32(b + i));
    vst1q_f32(a + i, va);
  }
  for (; i < n; ++i) a[i] += scale * b[i];
}

void DotBatch(const float* query, const float* rows, size_t num_rows,
              size_t dim, float* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    if (r + 8 <= num_rows) {
      __builtin_prefetch(rows + (r + 4) * dim);
      __builtin_prefetch(rows + (r + 5) * dim);
      __builtin_prefetch(rows + (r + 6) * dim);
      __builtin_prefetch(rows + (r + 7) * dim);
    }
    float32x4_t a0 = vdupq_n_f32(0.f);
    float32x4_t a1 = vdupq_n_f32(0.f);
    float32x4_t a2 = vdupq_n_f32(0.f);
    float32x4_t a3 = vdupq_n_f32(0.f);
    size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
      float32x4_t q = vld1q_f32(query + i);
      a0 = vfmaq_f32(a0, q, vld1q_f32(r0 + i));
      a1 = vfmaq_f32(a1, q, vld1q_f32(r1 + i));
      a2 = vfmaq_f32(a2, q, vld1q_f32(r2 + i));
      a3 = vfmaq_f32(a3, q, vld1q_f32(r3 + i));
    }
    float s0 = HSum(a0);
    float s1 = HSum(a1);
    float s2 = HSum(a2);
    float s3 = HSum(a3);
    for (; i < dim; ++i) {
      float q = query[i];
      s0 += q * r0[i];
      s1 += q * r1[i];
      s2 += q * r2[i];
      s3 += q * r3[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < num_rows; ++r) out[r] = Dot(query, rows + r * dim, dim);
}

void SquaredL2Batch(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    if (r + 8 <= num_rows) {
      __builtin_prefetch(rows + (r + 4) * dim);
      __builtin_prefetch(rows + (r + 5) * dim);
      __builtin_prefetch(rows + (r + 6) * dim);
      __builtin_prefetch(rows + (r + 7) * dim);
    }
    float32x4_t a0 = vdupq_n_f32(0.f);
    float32x4_t a1 = vdupq_n_f32(0.f);
    float32x4_t a2 = vdupq_n_f32(0.f);
    float32x4_t a3 = vdupq_n_f32(0.f);
    size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
      float32x4_t q = vld1q_f32(query + i);
      float32x4_t d0 = vsubq_f32(q, vld1q_f32(r0 + i));
      float32x4_t d1 = vsubq_f32(q, vld1q_f32(r1 + i));
      float32x4_t d2 = vsubq_f32(q, vld1q_f32(r2 + i));
      float32x4_t d3 = vsubq_f32(q, vld1q_f32(r3 + i));
      a0 = vfmaq_f32(a0, d0, d0);
      a1 = vfmaq_f32(a1, d1, d1);
      a2 = vfmaq_f32(a2, d2, d2);
      a3 = vfmaq_f32(a3, d3, d3);
    }
    float s0 = HSum(a0);
    float s1 = HSum(a1);
    float s2 = HSum(a2);
    float s3 = HSum(a3);
    for (; i < dim; ++i) {
      float q = query[i];
      float d0 = q - r0[i];
      float d1 = q - r1[i];
      float d2 = q - r2[i];
      float d3 = q - r3[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < num_rows; ++r) out[r] = SquaredL2(query, rows + r * dim, dim);
}

}  // namespace neon

#endif  // MIRA_SIMD_X86 / MIRA_SIMD_NEON

SimdTier ResolveTier() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- getenv races only with
  // setenv/putenv, which this process never calls.
  const char* force = std::getenv("MIRA_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') return SimdTier::kScalar;
#if defined(MIRA_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdTier::kAvx2;
  }
#elif defined(MIRA_SIMD_NEON)
  return SimdTier::kNeon;
#endif
  return SimdTier::kScalar;
}

const KernelTable& ScalarKernels() {
  static const KernelTable kTable = {
      scalar::Dot,      scalar::SquaredL2,      scalar::CosineSimilarity,
      scalar::Axpy,     scalar::DotBatch,       scalar::SquaredL2Batch,
  };
  return kTable;
}

const KernelTable& KernelsForTier(SimdTier tier) {
#if defined(MIRA_SIMD_X86)
  if (tier == SimdTier::kAvx2 && ResolveTier() != SimdTier::kScalar) {
    static const KernelTable kTable = {
        avx2::Dot,  avx2::SquaredL2, avx2::CosineSimilarity,
        avx2::Axpy, avx2::DotBatch,  avx2::SquaredL2Batch,
    };
    return kTable;
  }
#elif defined(MIRA_SIMD_NEON)
  if (tier == SimdTier::kNeon) {
    static const KernelTable kTable = {
        neon::Dot,  neon::SquaredL2, neon::CosineSimilarity,
        neon::Axpy, neon::DotBatch,  neon::SquaredL2Batch,
    };
    return kTable;
  }
#else
  (void)tier;
#endif
  return ScalarKernels();
}

const KernelTable& ActiveKernels() {
  static const KernelTable& kActive = KernelsForTier(ActiveSimdTier());
  return kActive;
}

}  // namespace simd_internal

SimdTier ActiveSimdTier() {
  static const SimdTier kTier = simd_internal::ResolveTier();
  return kTier;
}

std::string_view SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kNeon:
      return "neon";
  }
  return "unknown";
}

void DotBatch(const float* query, const float* rows, size_t num_rows,
              size_t dim, float* out) {
  simd_internal::ActiveKernels().dot_batch(query, rows, num_rows, dim, out);
}

void SquaredL2Batch(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out) {
  simd_internal::ActiveKernels().squared_l2_batch(query, rows, num_rows, dim,
                                                  out);
}

float ScalarDot(const float* a, const float* b, size_t n) {
  return simd_internal::ScalarKernels().dot(a, b, n);
}

float ScalarSquaredL2(const float* a, const float* b, size_t n) {
  return simd_internal::ScalarKernels().squared_l2(a, b, n);
}

void ScalarSquaredL2Batch(const float* query, const float* rows,
                          size_t num_rows, size_t dim, float* out) {
  simd_internal::ScalarKernels().squared_l2_batch(query, rows, num_rows, dim,
                                                  out);
}

}  // namespace mira::vecmath
