#ifndef MIRA_INDEX_PRODUCT_QUANTIZER_H_
#define MIRA_INDEX_PRODUCT_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "vecmath/matrix.h"
#include "vecmath/vector_ops.h"

namespace mira::index {

/// Product Quantization (Jégou et al. [19]): splits a D-dim vector into m
/// subvectors of D/m dims each, quantizing every subvector against its own
/// k-means codebook of 256 centroids. A vector compresses to m bytes (one
/// code byte per subvector), and query-to-code distances are computed by
/// float-table lookups (Asymmetric Distance Computation) instead of float
/// dot products — the storage/compute reduction the ANNS method relies on
/// (§4.2).
struct PqOptions {
  /// Number of subquantizers m; must divide the vector dimension.
  size_t num_subquantizers = 16;
  /// k-means iterations per codebook.
  size_t train_iterations = 12;
  /// Codebooks are trained on at most this many rows (uniform deterministic
  /// sample); 0 = all rows. 256-centroid codebooks converge long before the
  /// corpus is exhausted, so sampling buys large build-time savings.
  size_t max_training_rows = 4096;
  uint64_t seed = 1234;
};

class ProductQuantizer {
 public:
  /// Centroids per codebook: one byte per code.
  static constexpr size_t kCodebookSize = 256;

  /// Trains codebooks on the rows of `training_data` (>= kCodebookSize rows;
  /// smaller sets fill the spare slots with centroid 0). The m subspace
  /// k-means are independent (each has its own seed and writes only its own
  /// codebook), so with a `pool` they run concurrently; the codebooks are
  /// bit-identical to a null-pool (inline) run. Must not be called from a
  /// task of `pool` (see ParallelFor).
  [[nodiscard]] static Result<ProductQuantizer> Train(
      const vecmath::Matrix& training_data, const PqOptions& options,
      ThreadPool* pool = nullptr);

  /// Quantizes a vector to m one-byte codes.
  std::vector<uint8_t> Encode(const vecmath::Vec& vector) const;

  /// Encodes every row of `data` into `out` (row i's m codes start at
  /// out + i * code_bytes()) — the index-build hot path. Rows are encoded
  /// independently, in blocks; with a `pool` the blocks run concurrently
  /// and the codes are the same. Must not be called from a task of `pool`.
  void EncodeBatch(const vecmath::Matrix& data, uint8_t* out,
                   ThreadPool* pool = nullptr) const;

  /// Reconstructs the centroid approximation of a code sequence.
  vecmath::Vec Decode(const std::vector<uint8_t>& codes) const;

  /// Precomputed query-to-centroid table: entry [s * kCodebookSize + c] is
  /// the squared L2 distance between query subvector s and centroid c of
  /// subquantizer s.
  std::vector<float> ComputeDistanceTable(const vecmath::Vec& query) const;

  /// Same, writing into a caller-owned buffer (resized to
  /// m * kCodebookSize). Lets query loops reuse one allocation across
  /// queries.
  void ComputeDistanceTable(const vecmath::Vec& query,
                            std::vector<float>* table) const;

  /// Squared L2 distance between the query (via its distance table) and an
  /// encoded vector: the ADC sum of m table lookups.
  float AdcDistance(const std::vector<float>& table,
                    const uint8_t* codes) const;

  /// Batched ADC over `num_codes` contiguous m-byte codes starting at
  /// `codes`: out[i] = AdcDistance(table, codes + i * code_bytes()). Walks
  /// eight codes per iteration with independent accumulators and prefetches
  /// upcoming code blocks — the hot loop of HnswIndex's quantized beam.
  void AdcDistanceBatch(const std::vector<float>& table, const uint8_t* codes,
                        size_t num_codes, float* out) const;

  size_t dim() const { return dim_; }
  size_t num_subquantizers() const { return m_; }
  size_t sub_dim() const { return sub_dim_; }
  /// Bytes of one code sequence (one byte per subquantizer).
  size_t code_bytes() const { return m_; }
  /// Resident bytes of the codebook floats (the trained model).
  size_t codebook_bytes() const { return codebooks_.size() * sizeof(float); }

  /// Mean squared reconstruction error over the rows of `data` (diagnostic).
  double ReconstructionError(const vecmath::Matrix& data) const;

 private:
  ProductQuantizer() = default;

  /// Nearest-centroid sweep for one vector; `dist` is caller scratch of
  /// kCodebookSize floats, `out` receives m_ codes.
  void EncodeRow(const float* vector, float* dist, uint8_t* out) const;

  size_t dim_ = 0;
  size_t m_ = 0;
  size_t sub_dim_ = 0;
  /// m_ codebooks, each kCodebookSize x sub_dim_, stored concatenated
  /// row-major: centroid c of subquantizer s starts at
  /// ((s * kCodebookSize) + c) * sub_dim_.
  std::vector<float> codebooks_;
};

}  // namespace mira::index

#endif  // MIRA_INDEX_PRODUCT_QUANTIZER_H_
