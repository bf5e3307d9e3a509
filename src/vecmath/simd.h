#ifndef MIRA_VECMATH_SIMD_H_
#define MIRA_VECMATH_SIMD_H_

#include <cstddef>
#include <string_view>

namespace mira::vecmath {

/// Instruction-set tier the vecmath kernels run on. Resolved once per process
/// from CPU feature detection; MIRA_FORCE_SCALAR=1 pins the scalar tier (used
/// by parity tests and to make scalar-only CI runs explicit in bench output).
enum class SimdTier {
  kScalar,
  kAvx2,  // x86-64 AVX2 + FMA
  kNeon,  // aarch64 Advanced SIMD
};

/// The tier selected at first use; stable for the process lifetime.
SimdTier ActiveSimdTier();

std::string_view SimdTierName(SimdTier tier);

/// Scores one query against `num_rows` contiguous row-major vectors:
/// out[r] = dot(query, rows + r * dim). `rows` is a dense slab such as
/// Matrix::Row(0); SIMD tiers scan a group of rows per iteration (eight on
/// AVX2, four on NEON) with one independent accumulator per row, the query
/// loaded once per lane group, and upcoming rows prefetched.
void DotBatch(const float* query, const float* rows, size_t num_rows,
              size_t dim, float* out);

/// Batched squared Euclidean distance: out[r] = |query - row_r|^2.
void SquaredL2Batch(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out);

/// Bit-reproducible forms of the kernels above: always the portable scalar
/// reference, regardless of the active tier. The offline build pipeline
/// (PCA projection, UMAP layout, HDBSCAN, k-means, medoid selection, PQ
/// encoding) uses these so a given corpus builds to bit-identical indexes
/// on every CPU — SIMD reassociation otherwise feeds different rounding
/// into the iterative optimizers, which amplify it into machine-dependent
/// clusterings and codebooks. Query-time scans stay on the active tier.
float ScalarDot(const float* a, const float* b, size_t n);
float ScalarSquaredL2(const float* a, const float* b, size_t n);
void ScalarSquaredL2Batch(const float* query, const float* rows,
                          size_t num_rows, size_t dim, float* out);

namespace simd_internal {

/// Per-tier kernel entry points. vector_ops.cc routes the public scalar API
/// through the active table; tests compare tables against each other.
struct KernelTable {
  float (*dot)(const float* a, const float* b, size_t n);
  float (*squared_l2)(const float* a, const float* b, size_t n);
  float (*cosine_similarity)(const float* a, const float* b, size_t n);
  void (*axpy)(float* a, const float* b, float scale, size_t n);
  void (*dot_batch)(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out);
  void (*squared_l2_batch)(const float* query, const float* rows,
                           size_t num_rows, size_t dim, float* out);
};

/// Kernels of the tier reported by ActiveSimdTier().
const KernelTable& ActiveKernels();

/// The portable reference kernels (always available; the dispatch fallback
/// and the baseline parity tests compare against).
const KernelTable& ScalarKernels();

/// Kernels for an explicit tier; returns ScalarKernels() when `tier` is not
/// available on this CPU/build.
const KernelTable& KernelsForTier(SimdTier tier);

/// Re-runs feature detection and the MIRA_FORCE_SCALAR env lookup. Testing
/// hook: ActiveSimdTier() caches its first result, this never caches.
SimdTier ResolveTier();

}  // namespace simd_internal

}  // namespace mira::vecmath

#endif  // MIRA_VECMATH_SIMD_H_
