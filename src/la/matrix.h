#ifndef SUBREC_LA_MATRIX_H_
#define SUBREC_LA_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace subrec::la {

/// Dense row-major matrix of doubles. The single numeric container used by
/// the autodiff engine, the clustering code and the recommenders. Vectors
/// are represented as 1xN or Nx1 matrices or as std::vector<double> where a
/// flat view is more natural.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix m = {{1,2},{3,4}};
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Entries i.i.d. Uniform(lo, hi).
  static Matrix Random(size_t rows, size_t cols, Rng& rng, double lo = -1.0,
                       double hi = 1.0);

  /// Entries i.i.d. Normal(0, stddev).
  static Matrix RandomGaussian(size_t rows, size_t cols, Rng& rng,
                               double stddev = 1.0);

  /// 1 x v.size() row vector wrapping a copy of `v`.
  static Matrix RowVector(const std::vector<double>& v);

  /// v.size() x 1 column vector wrapping a copy of `v`.
  static Matrix ColVector(const std::vector<double>& v);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    SUBREC_CHECK(r < rows_ && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    SUBREC_CHECK(r < rows_ && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }

  /// Flat element access (row-major). Bounds-checked in debug builds only:
  /// this is the innermost-loop access path, so release builds stay raw.
  double& operator[](size_t i) {
    SUBREC_DCHECK_LT(i, data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    SUBREC_DCHECK_LT(i, data_.size());
    return data_[i];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(size_t r) {
    SUBREC_DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* row_data(size_t r) const {
    SUBREC_DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r into a std::vector.
  std::vector<double> RowToVector(size_t r) const;

  /// Overwrites row r from `v` (sizes must match).
  void SetRow(size_t r, const std::vector<double>& v);

  void Fill(double v) { data_.assign(data_.size(), v); }

  /// Reshape preserving the flat contents; total size must be unchanged.
  void Reshape(size_t rows, size_t cols);

  /// Resizes to rows x cols with every entry zeroed, reusing the existing
  /// heap allocation whenever capacity suffices. The storage primitive of
  /// the autodiff arena: a matrix that is ResizeZero'd to the same shape
  /// every pass allocates only once.
  void ResizeZero(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Resizes to rows x cols without clearing retained entries; grown
  /// entries are unspecified (never zero-filled). Only for callers that
  /// overwrite every entry, like TransposeInto and the snapshot decoder:
  /// growing a fresh slab costs no pass over its memory, and in the steady
  /// state (same shape as last pass) this is free where ResizeZero pays a
  /// full memset.
  void ResizeOverwrite(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Copies shape and contents from `src`, reusing this matrix's
  /// allocation when capacity suffices (unlike operator=, which may give
  /// up the buffer to copy-and-swap).
  void CopyFrom(const Matrix& src) {
    rows_ = src.rows_;
    cols_ = src.cols_;
    data_.assign(src.data_.begin(), src.data_.end());
  }

  /// Becomes the empty 0x0 matrix but keeps the heap allocation so a later
  /// ResizeZero/CopyFrom to a similar shape is allocation-free.
  void ClearKeepCapacity() {
    rows_ = 0;
    cols_ = 0;
    data_.clear();
  }

  /// Entries currently reserved on the heap (>= size()).
  size_t capacity() const { return data_.capacity(); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Human-readable dump (small matrices only; used in tests/logging).
  std::string ToString(int precision = 4) const;

  /// Shape and element-wise equality (IEEE ==, so NaN entries never
  /// compare equal — matching what the nested-vector representation the
  /// snapshot structs used to hold would have said).
  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }
  friend bool operator!=(const Matrix& a, const Matrix& b) {
    return !(a == b);
  }

 private:
  /// std::allocator, except that the value-initializing construct which
  /// std::vector::resize calls for each grown entry default-initializes
  /// it, so ResizeOverwrite never zero-fills. Every construct with a value
  /// (a fill, a copy) forwards it unchanged.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    using std::allocator<T>::allocator;

    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

}  // namespace subrec::la

#endif  // SUBREC_LA_MATRIX_H_
