// Small dense row-major matrix/vector math used by the classical layers,
// dataset codecs, and result tables. This is deliberately a simple, fully
// owned value type (no expression templates, no views) — the heavy numeric
// work in this project happens in the quantum statevector kernels and in
// the autodiff tensor ops, both of which operate on raw contiguous storage.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace sqvae {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Constructs from nested initializer lists; all rows must have the same
  /// length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Flat element access (row-major).
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  Matrix transpose() const;
  /// this * rhs. Each output element adds its products in ascending k and
  /// skips the terms whose left factor this(i, k) is zero.
  Matrix matmul(const Matrix& rhs) const;
  /// this * rhs^T without building the transpose: bit-identical to
  /// matmul(rhs.transpose()), with the same order and zero skips.
  Matrix matmul_transposed(const Matrix& rhs) const;
  /// this^T * rhs without building the transpose: bit-identical to
  /// transpose().matmul(rhs), with the same order and zero skips.
  Matrix transposed_matmul(const Matrix& rhs) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  bool operator==(const Matrix& rhs) const = default;

  /// Sum of all elements.
  double sum() const;
  /// Sum of |x| over all elements (L1 norm of the flattened matrix).
  double l1_norm() const;
  /// sqrt of sum of squares (Frobenius norm).
  double frobenius_norm() const;
  /// Largest element.
  double max() const;
  /// Smallest element.
  double min() const;

  /// Mean squared difference against another matrix of the same shape.
  double mse(const Matrix& other) const;

  /// Row r as a flat vector.
  std::vector<double> row(std::size_t r) const;

  /// Human-readable rendering, mostly for tests and examples.
  std::string to_string(int precision = 3) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Sum of |x_i|.
double l1_norm(const std::vector<double>& v);

/// sqrt of sum of squares.
double l2_norm(const std::vector<double>& v);

/// Divides v by its L1 norm; returns v unchanged when the norm is ~0.
std::vector<double> l1_normalized(std::vector<double> v);

/// Mean squared error between two equally sized vectors.
double mse(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace sqvae
