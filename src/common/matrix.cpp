#include "common/matrix.h"

#include <cassert>
#include <cmath>
#include <sstream>

namespace sqvae {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_ && "all rows must have equal length");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::matmul(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::matmul_transposed(const Matrix& rhs) const {
  assert(cols_ == rhs.cols_);
  Matrix out(rows_, rhs.rows_);
  // matmul's loop nest and update expression, reading rhs by column: the
  // same sums, and the same NaN whenever both addends are NaN.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.rows_; ++j) {
        out(i, j) += aik * rhs(j, k);
      }
    }
  }
  return out;
}

Matrix Matrix::transposed_matmul(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_);
  Matrix out(cols_, rhs.cols_);
  // k outermost keeps every element's sum in ascending k.
  for (std::size_t k = 0; k < rows_; ++k) {
    for (std::size_t i = 0; i < cols_; ++i) {
      const double aki = (*this)(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aki * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::l1_norm() const {
  double s = 0.0;
  for (double v : data_) s += std::abs(v);
  return s;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max() const {
  assert(!data_.empty());
  double m = data_[0];
  for (double v : data_) m = v > m ? v : m;
  return m;
}

double Matrix::min() const {
  assert(!data_.empty());
  double m = data_[0];
  for (double v : data_) m = v < m ? v : m;
  return m;
}

double Matrix::mse(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  assert(!data_.empty());
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - other.data_[i];
    s += d * d;
  }
  return s / static_cast<double>(data_.size());
}

std::vector<double> Matrix::row(std::size_t r) const {
  assert(r < rows_);
  return std::vector<double>(
      data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
      data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ' ';
      os << (*this)(r, c);
    }
    os << '\n';
  }
  return os.str();
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double l1_norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::abs(x);
  return s;
}

double l2_norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

std::vector<double> l1_normalized(std::vector<double> v) {
  const double n = l1_norm(v);
  if (n > 1e-12) {
    for (double& x : v) x /= n;
  }
  return v;
}

double mse(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size() && !a.empty());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s / static_cast<double>(a.size());
}

}  // namespace sqvae
