// Dense row-major matrix of doubles — the storage type for all NN and ML
// code in this library. Kept deliberately small: owning storage, shape,
// element access and simple initializers; the compute kernels live in
// tensor/kernels.hpp so they can be instrumented in one place.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ranknet::tensor {

/// Matrix storage allocator: blocks of at least kAlignedBytes start on a
/// 64-byte boundary, so a SIMD kernel that reads a weight matrix in place
/// never splits a row load across cache lines (an inference session
/// borrows its layer's weights instead of copying them into aligned
/// scratch). Smaller blocks — per-car sample matrices, which a season run
/// keeps by the thousand — keep the default alignment and footprint.
template <typename T>
struct MatrixAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignedBytes = 1024;
  static constexpr std::align_val_t kAlign{64};

  MatrixAllocator() = default;
  template <typename U>
  MatrixAllocator(const MatrixAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n * sizeof(T) >= kAlignedBytes) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kAlignedBytes) {
      ::operator delete(p, n * sizeof(T), kAlign);
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }
  friend bool operator==(const MatrixAllocator&, const MatrixAllocator&) {
    return true;
  }
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }

  /// i.i.d. normal entries, used by weight initializers.
  static Matrix randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                      double stddev = 1.0) {
    Matrix m(rows, cols);
    for (auto& x : m.data_) x = rng.normal(0.0, stddev);
    return m;
  }

  /// Xavier/Glorot uniform initializer.
  static Matrix glorot(std::size_t rows, std::size_t cols, util::Rng& rng) {
    Matrix m(rows, cols);
    const double limit =
        std::sqrt(6.0 / static_cast<double>(rows + cols));
    for (auto& x : m.data_) x = rng.uniform(-limit, limit);
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> flat() { return {data_.data(), data_.size()}; }
  std::span<const double> flat() const { return {data_.data(), data_.size()}; }

  void fill(double v) {
    for (auto& x : data_) x = v;
  }
  void set_zero() { fill(0.0); }

  /// Reshape without reallocation; total size must match.
  void reshape(std::size_t rows, std::size_t cols) {
    assert(rows * cols == data_.size());
    rows_ = rows;
    cols_ = cols;
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, MatrixAllocator<double>> data_;
};

using Vector = std::vector<double>;

}  // namespace ranknet::tensor
