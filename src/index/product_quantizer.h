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
/// k-means codebook of 2^nbits centroids. A vector compresses to m bytes
/// (nbits = 8) or m/2 bytes (nbits = 4, two codes per packed byte), and
/// query-to-code distances are computed by table lookups (Asymmetric
/// Distance Computation) instead of float dot products — the
/// storage/compute reduction the ANNS method relies on (§4.2).
struct PqOptions {
  /// Number of subquantizers m; must divide the vector dimension.
  size_t num_subquantizers = 16;
  /// Bits per code; codebook size is 2^nbits. Supported values:
  ///   8 — 256-centroid codebooks, one byte per code, float-table ADC.
  ///   4 — 16-centroid codebooks; codes pack two per byte into the blocked
  ///       fast-scan layout and queries scan them with register-resident
  ///       quantized LUTs (vecmath::Adc4Batch). Requires
  ///       num_subquantizers <= 257 (uint16 accumulator bound).
  size_t nbits = 8;
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
  /// The per-query float distance table quantized to uint8 for the 4-bit
  /// fast-scan: entry [s * 16 + c] is round((table[s][c] - min_s) / scale),
  /// where min_s is subspace s's minimum and `scale` is one shared step
  /// chosen from the largest per-subspace residual (max/min over the table).
  /// A uint16 lookup sum `q` dequantizes to `bias + scale * q`, which
  /// differs from the float ADC sum by at most m * scale / 2 — the
  /// quantization error the rescoring pass absorbs.
  struct QuantizedLut {
    std::vector<uint8_t> lut;  ///< m * 16 entries, one SIMD register per row.
    float scale = 0.f;
    float bias = 0.f;
  };

  /// Trains codebooks on the rows of `training_data` (>= 2^nbits rows).
  /// The m subspace k-means are independent (each has its own seed and
  /// writes only its own codebook), so with a `pool` they run concurrently;
  /// the codebooks are bit-identical to a null-pool (inline) run. Must not
  /// be called from a task of `pool` (see ParallelFor).
  [[nodiscard]] static Result<ProductQuantizer> Train(
      const vecmath::Matrix& training_data, const PqOptions& options,
      ThreadPool* pool = nullptr);

  /// Quantizes a vector to m one-byte codes (each < 2^nbits).
  std::vector<uint8_t> Encode(const vecmath::Vec& vector) const;

  /// Encodes every row of `data` into `out` (row i's m codes start at
  /// out + i * code_bytes()) — the index-build hot path. Rows are encoded
  /// independently, in blocks; with a `pool` the blocks run concurrently
  /// and the codes are the same. Must not be called from a task of `pool`.
  void EncodeBatch(const vecmath::Matrix& data, uint8_t* out,
                   ThreadPool* pool = nullptr) const;

  /// Reconstructs the centroid approximation of a code sequence.
  vecmath::Vec Decode(const std::vector<uint8_t>& codes) const;

  /// Precomputed query-to-centroid table: entry [s * ksub + c] is the squared
  /// L2 distance between query subvector s and centroid c of subquantizer s.
  std::vector<float> ComputeDistanceTable(const vecmath::Vec& query) const;

  /// Same, writing into a caller-owned buffer (resized to m * ksub). Lets
  /// query loops reuse one allocation across queries.
  void ComputeDistanceTable(const vecmath::Vec& query,
                            std::vector<float>* table) const;

  /// Quantizes a float distance table (nbits=4 only: m * 16 entries) into
  /// the uint8 form the fast-scan kernels consume. Reuses `out`'s storage.
  void QuantizeDistanceTable(const std::vector<float>& table,
                             QuantizedLut* out) const;

  /// Squared L2 distance between the query (via its distance table) and an
  /// encoded vector: the ADC sum of m table lookups.
  float AdcDistance(const std::vector<float>& table,
                    const uint8_t* codes) const;

  /// Batched ADC over `num_codes` contiguous m-byte codes starting at
  /// `codes`: out[i] = AdcDistance(table, codes + i * code_bytes()). Walks
  /// eight codes per iteration with independent accumulators and prefetches
  /// upcoming code blocks — the hot loop of PqFlatIndex::Search.
  void AdcDistanceBatch(const std::vector<float>& table, const uint8_t* codes,
                        size_t num_codes, float* out) const;

  size_t dim() const { return dim_; }
  size_t num_subquantizers() const { return m_; }
  size_t sub_dim() const { return sub_dim_; }
  size_t codebook_size() const { return ksub_; }
  size_t nbits() const { return nbits_; }
  /// Bytes of one *unpacked* code sequence (one byte per subquantizer, for
  /// both nbits). The 4-bit packed storage format is the index's concern
  /// (Pack4BitCodesBlocked below).
  size_t code_bytes() const { return m_; }
  /// Resident bytes of the codebook floats (the trained model).
  size_t codebook_bytes() const { return codebooks_.size() * sizeof(float); }

  /// Mean squared reconstruction error over the rows of `data` (diagnostic).
  double ReconstructionError(const vecmath::Matrix& data) const;

 private:
  ProductQuantizer() = default;

  /// Nearest-centroid sweep for one vector; `dist` is caller scratch of
  /// ksub_ floats, `out` receives m_ codes.
  void EncodeRow(const float* vector, float* dist, uint8_t* out) const;

  size_t dim_ = 0;
  size_t m_ = 0;
  size_t sub_dim_ = 0;
  size_t ksub_ = 0;
  size_t nbits_ = 8;
  /// m_ codebooks, each ksub_ x sub_dim_, stored concatenated row-major:
  /// centroid c of subquantizer s starts at ((s * ksub_) + c) * sub_dim_.
  std::vector<float> codebooks_;
};

/// Packs unpacked 4-bit codes (n rows of m one-byte codes, each < 16) into
/// the blocked fast-scan layout vecmath::Adc4Batch consumes: blocks of 32
/// vectors, sub-quantizer-major within a block, vector j's code in the low
/// nibble and vector j+16's in the high nibble of byte j of a
/// sub-quantizer's 16-byte group. The tail block is zero-padded (padding
/// lanes are computed by the kernel and discarded by the caller). Output
/// size: ceil(n / 32) * m * 16 bytes — m/2 bytes per stored vector.
void Pack4BitCodesBlocked(const uint8_t* codes, size_t n, size_t m,
                          std::vector<uint8_t>* packed);

/// Reads back the code of vector `idx`, subquantizer `s` from the blocked
/// layout — the rescore path's on-demand unpacking (the packed form is the
/// only copy kept when originals are dropped).
inline uint8_t Packed4Code(const uint8_t* packed, size_t m, size_t idx,
                           size_t s) {
  const size_t block = idx / 32;
  const size_t j = idx % 32;
  const uint8_t byte = packed[(block * m + s) * 16 + (j % 16)];
  return j < 16 ? byte & 0x0F : byte >> 4;
}

}  // namespace mira::index

#endif  // MIRA_INDEX_PRODUCT_QUANTIZER_H_
