#ifndef MIRA_VECMATH_MATRIX_H_
#define MIRA_VECMATH_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "vecmath/vector_ops.h"

namespace mira::vecmath {

/// Allocator whose blocks start on a 64-byte cache line. It over-allocates
/// through malloc and keeps the malloc pointer just below the block: with
/// std::aligned_alloc (glibc memalign) instead, `anns_serve` measured 2 to
/// 7 MiB more peak RSS.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr size_t kLine = 64;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    void* raw = std::malloc(n * sizeof(T) + kLine);
    MIRA_CHECK(raw != nullptr) << "out of memory";
    // malloc aligns to 16, so the block starts 16 to 64 bytes past raw.
    char* block = static_cast<char*>(raw) + kLine -
                  reinterpret_cast<uintptr_t>(raw) % kLine;
    std::memcpy(block - sizeof(raw), &raw, sizeof(raw));
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, size_t /*n*/) {
    void* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<char*>(p) - sizeof(raw), sizeof(raw));
    std::free(raw);
  }
  // Stateless, so any two compare equal (C++17 spells out both operators).
  friend bool operator==(CacheLineAllocator, CacheLineAllocator) { return true; }
  friend bool operator!=(CacheLineAllocator, CacheLineAllocator) { return false; }
};

/// Row-major dense float matrix used as the vector storage layout of indexes
/// and reducers. Rows are fixed-width embedding vectors. Storage starts on a
/// cache line, so no 32-byte SIMD load of a row at a 64-byte offset (every
/// row when cols() is a multiple of 16) straddles two lines.
class Matrix {
 public:
  using Storage = std::vector<float, CacheLineAllocator<float>>;

  Matrix() = default;
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  float* Row(size_t r) {
    MIRA_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    MIRA_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float& At(size_t r, size_t c) {
    MIRA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    MIRA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Copies a row out as a Vec.
  Vec RowVec(size_t r) const {
    const float* p = Row(r);
    return Vec(p, p + cols_);
  }

  /// Overwrites a row. `v.size()` must equal cols().
  void SetRow(size_t r, const Vec& v) {
    MIRA_DCHECK(v.size() == cols_);
    std::copy(v.begin(), v.end(), Row(r));
  }

  /// Appends a row (grows the matrix by one).
  void AppendRow(const Vec& v) {
    if (rows_ == 0 && cols_ == 0) {
      cols_ = v.size();
      if (pending_reserve_rows_ > 0) {
        data_.reserve(pending_reserve_rows_ * cols_);
        pending_reserve_rows_ = 0;
      }
    }
    MIRA_DCHECK(v.size() == cols_);
    data_.insert(data_.end(), v.begin(), v.end());
    ++rows_;
  }

  /// Pre-allocates storage for `rows` total rows so repeated AppendRow calls
  /// don't reallocate per row. If the column width isn't known yet (empty
  /// matrix), the reservation is deferred until the first AppendRow fixes it.
  void Reserve(size_t rows) {
    if (cols_ > 0) {
      data_.reserve(rows * cols_);
    } else {
      pending_reserve_rows_ = rows;
    }
  }

  /// Drops the rows from `rows` on; the storage keeps its capacity.
  void TruncateRows(size_t rows) {
    MIRA_DCHECK(rows <= rows_);
    rows_ = rows;
    data_.erase(data_.begin() + static_cast<std::ptrdiff_t>(rows * cols_),
                data_.end());
  }

  const Storage& data() const { return data_; }
  Storage& data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t pending_reserve_rows_ = 0;
  Storage data_;
};

/// Read-only rows of a matrix picked through an index (row i is
/// matrix.Row(index[i]), or matrix.Row(i) without one), so a store of
/// distinct vectors reads as one row per point without a copy. The matrix
/// and the index must outlive the view.
class RowsView {
 public:
  RowsView(const Matrix& matrix)  // NOLINT(google-explicit-constructor) -- every matrix is a view of itself
      : matrix_(&matrix), rows_(matrix.rows()) {}
  RowsView(const Matrix& matrix, const std::vector<uint32_t>& index)
      : matrix_(&matrix), index_(index.data()), rows_(index.size()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return matrix_->cols(); }
  const float* Row(size_t r) const { return matrix_->Row(MatrixRow(r)); }
  Vec RowVec(size_t r) const { return Vec(Row(r), Row(r) + cols()); }

  /// The matrix the rows are read from, and the matrix row of point r
  /// (every matrix row is a point once when the view has no index).
  const Matrix& matrix() const { return *matrix_; }
  size_t MatrixRow(size_t r) const {
    MIRA_DCHECK(r < rows_);
    return index_ == nullptr ? r : index_[r];
  }

 private:
  const Matrix* matrix_;
  const uint32_t* index_ = nullptr;
  size_t rows_;
};

}  // namespace mira::vecmath

#endif  // MIRA_VECMATH_MATRIX_H_
