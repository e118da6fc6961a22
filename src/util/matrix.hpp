// matrix.hpp — dense row-major matrix container used by the distributed
// matrix multiplication algorithms and the reference kernels.
//
// This is deliberately simple: owning storage, row-major layout, submatrix
// copy-in/copy-out (the distributed algorithms move rectangular blocks), and
// comparison helpers for verification.  BLAS-style kernels live in
// matmul/local_gemm.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/scalar.hpp"

namespace camb {

/// splitmix64 of the global index (row, col): the one seed expression behind
/// both input patterns below.
inline std::uint64_t index_hash(i64 row, i64 col) {
  std::uint64_t s = static_cast<std::uint64_t>(row * 0x1000003 + col);
  return splitmix64(s);
}

/// The library's deterministic input pattern: entry (row, col) of a global
/// matrix, a unit draw in [-0.5, 0.5) from the index alone, mapped through
/// ScalarTraits<T>::from_unit.  Every distributed fill, the serial reference
/// and the verifier's on-the-fly operands read this one function, so they
/// agree bit for bit.
template <typename T>
T indexed_entry(i64 row, i64 col) {
  const double u =
      static_cast<double>(index_hash(row, col) >> 11) * 0x1.0p-53 - 0.5;
  return ScalarTraits<T>::from_unit(u);
}

/// Integer-valued pattern: small integers in [-8, 7].  Every sum-of-products
/// over such entries is exact in double arithmetic (far below 2^53), hence
/// independent of summation order — the property the ABFT checksum
/// reconstruction relies on for bit-identical recovery.
template <typename T>
T indexed_int_entry(i64 row, i64 col) {
  return static_cast<T>(static_cast<double>(index_hash(row, col) >> 60) - 8.0);
}

template <typename T>
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(i64 rows, i64 cols, T init = T{})
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(checked_mul(rows, cols)), init) {
    CAMB_CHECK_MSG(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
  }
  /// Adopt `data` (row-major, exactly rows x cols elements) as the storage:
  /// a move, never a copy — how received panels become GEMM operands.
  Matrix(i64 rows, i64 cols, std::vector<T>&& data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    CAMB_CHECK_MSG(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
    CAMB_CHECK_MSG(static_cast<i64>(data_.size()) == checked_mul(rows, cols),
                   "adopted storage does not match the matrix shape");
  }

  /// Give the storage back (the inverse of adoption), leaving this empty.
  std::vector<T> release() && {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  i64 rows() const { return rows_; }
  i64 cols() const { return cols_; }
  /// Element count through the same overflow-checked product the constructor
  /// uses (a raw rows_ * cols_ would silently wrap where construction threw).
  i64 size() const { return checked_mul(rows_, cols_); }
  bool empty() const { return data_.empty(); }

  T& operator()(i64 i, i64 j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  const T& operator()(i64 i, i64 j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Copy the rows x cols block at (r0, c0) of this matrix into a new matrix.
  Matrix block(i64 r0, i64 c0, i64 rows, i64 cols) const {
    CAMB_CHECK_MSG(r0 >= 0 && c0 >= 0 && r0 + rows <= rows_ && c0 + cols <= cols_,
                   "block out of range");
    Matrix out(rows, cols);
    for (i64 i = 0; i < rows; ++i) {
      for (i64 j = 0; j < cols; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
    }
    return out;
  }

  /// Copy `src` into this matrix with its top-left corner at (r0, c0).
  void set_block(i64 r0, i64 c0, const Matrix& src) {
    CAMB_CHECK_MSG(r0 >= 0 && c0 >= 0 && r0 + src.rows() <= rows_ &&
                       c0 + src.cols() <= cols_,
                   "set_block out of range");
    for (i64 i = 0; i < src.rows(); ++i) {
      const T* row = src.data() + i * src.cols();
      std::copy(row, row + src.cols(), data() + (r0 + i) * cols_ + c0);
    }
  }

  /// Add `src` into this matrix at (r0, c0).
  void add_block(i64 r0, i64 c0, const Matrix& src) {
    CAMB_CHECK_MSG(r0 >= 0 && c0 >= 0 && r0 + src.rows() <= rows_ &&
                       c0 + src.cols() <= cols_,
                   "add_block out of range");
    for (i64 i = 0; i < src.rows(); ++i) {
      for (i64 j = 0; j < src.cols(); ++j) (*this)(r0 + i, c0 + j) += src(i, j);
    }
  }

  /// Fill with deterministic pseudo-random values through the scalar's
  /// traits.  Floating scalars keep the historical [-1, 1) draw (for double
  /// the stream is bit-identical to the pre-traits behaviour); exact
  /// (integer) scalars map the unit draw onto their full fill range instead
  /// of truncating every draw to 0 through a unit-magnitude cast.
  void fill_random(Rng& rng) {
    for (auto& value : data_) {
      const double u = rng.uniform(-1.0, 1.0);
      if constexpr (ScalarTraits<T>::exact) {
        value = ScalarTraits<T>::from_unit(u / 2.0);
      } else {
        value = ScalarTraits<T>::from_unit(u);
      }
    }
  }

  /// Fill element (i, j) with indexed_entry at the *global* index
  /// (gr0 + i, gc0 + j).  Used to build a distributed matrix whose contents
  /// are identical to a reference matrix built serially.
  void fill_indexed(i64 gr0, i64 gc0) {
    for (i64 i = 0; i < rows_; ++i) {
      for (i64 j = 0; j < cols_; ++j) {
        (*this)(i, j) = indexed_entry<T>(gr0 + i, gc0 + j);
      }
    }
  }

  /// Integer-valued variant of fill_indexed (indexed_int_entry).
  void fill_indexed_int(i64 gr0, i64 gc0) {
    for (i64 i = 0; i < rows_; ++i) {
      for (i64 j = 0; j < cols_; ++j) {
        (*this)(i, j) = indexed_int_entry<T>(gr0 + i, gc0 + j);
      }
    }
  }

  /// Max absolute element-wise difference with another matrix of equal shape
  /// (NaN if any entry differs by NaN, so a poisoned result never compares
  /// clean).
  double max_abs_diff(const Matrix& other) const {
    CAMB_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
    double worst = 0.0;
    for (std::size_t idx = 0; idx < data_.size(); ++idx) {
      worst = nan_max(
          worst, std::abs(ScalarTraits<T>::to_double(data_[idx]) -
                          ScalarTraits<T>::to_double(other.data_[idx])));
    }
    return worst;
  }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  i64 rows_, cols_;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;

/// Serial reference multiplication C = A * B (triple loop, ikj order).
template <typename T>
Matrix<T> matmul_reference(const Matrix<T>& a, const Matrix<T>& b) {
  CAMB_CHECK_MSG(a.cols() == b.rows(), "inner dimensions must agree");
  Matrix<T> c(a.rows(), b.cols());
  for (i64 i = 0; i < a.rows(); ++i) {
    for (i64 k = 0; k < a.cols(); ++k) {
      const T aik = a(i, k);
      for (i64 j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

}  // namespace camb
