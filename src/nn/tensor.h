#ifndef TGSIM_NN_TENSOR_H_
#define TGSIM_NN_TENSOR_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace tgsim::nn {

/// Scalar type used by the learning substrate. Double keeps the numerical
/// gradient checks tight; every tensor in this reproduction is small enough
/// that the 2x memory cost over float is irrelevant.
using Scalar = double;

/// Dense row-major 2-D tensor (vectors are 1 x n or n x 1).
///
/// This is the storage + math kernel layer beneath the autograd engine
/// (autograd.h). All allocations are registered with MemoryTracker so the
/// efficiency experiments (paper Fig. 6) can report peak memory per
/// generator, mirroring the paper's GPU-memory measurements.
class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(int rows, int cols);
  Tensor(int rows, int cols, Scalar fill);
  /// Builds a tensor from row-major data; `data.size()` must be rows*cols.
  Tensor(int rows, int cols, std::vector<Scalar> data);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  // -- Factories --------------------------------------------------------

  static Tensor Zeros(int rows, int cols) { return Tensor(rows, cols); }
  static Tensor Ones(int rows, int cols) { return Tensor(rows, cols, 1.0); }
  static Tensor Full(int rows, int cols, Scalar v) {
    return Tensor(rows, cols, v);
  }
  static Tensor Identity(int n);
  /// Entries ~ N(0, stddev^2).
  static Tensor Randn(Rng& rng, int rows, int cols, Scalar stddev = 1.0);
  /// Entries ~ U(lo, hi).
  static Tensor RandUniform(Rng& rng, int rows, int cols, Scalar lo,
                            Scalar hi);
  /// Glorot/Xavier uniform initialization for a (fan_in x fan_out) weight.
  static Tensor GlorotUniform(Rng& rng, int fan_in, int fan_out);

  // -- Shape ------------------------------------------------------------

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // -- Element access ---------------------------------------------------

  Scalar& at(int r, int c) {
    TGSIM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  Scalar at(int r, int c) const {
    TGSIM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  Scalar* data() { return data_; }
  const Scalar* data() const { return data_; }
  Scalar* row(int r) { return data_ + static_cast<size_t>(r) * cols_; }
  const Scalar* row(int r) const {
    return data_ + static_cast<size_t>(r) * cols_;
  }
  /// Contiguous view of row r — hands a whole softmax/logit row to the
  /// sampling layer without the element-by-element at(0, c) copies the
  /// generators used to make.
  std::span<Scalar> RowSpan(int r) {
    TGSIM_DCHECK(r >= 0 && r < rows_);
    return {row(r), static_cast<size_t>(cols_)};
  }
  std::span<const Scalar> RowSpan(int r) const {
    TGSIM_DCHECK(r >= 0 && r < rows_);
    return {row(r), static_cast<size_t>(cols_)};
  }

  // -- In-place updates -------------------------------------------------

  void Fill(Scalar v);
  void SetZero() { Fill(0.0); }
  /// this += other (same shape).
  void AddInPlace(const Tensor& other);
  /// this += alpha * other (same shape) — the optimizer kernel.
  void Axpy(Scalar alpha, const Tensor& other);
  /// this *= alpha.
  void ScaleInPlace(Scalar alpha);
  /// Adds `vec` (1 x cols) to every row.
  void AddRowVectorInPlace(const Tensor& vec);

  // -- Value-level math (used directly by non-learned components) -------

  Tensor operator+(const Tensor& other) const;
  Tensor operator-(const Tensor& other) const;
  /// Elementwise product.
  Tensor CwiseMul(const Tensor& other) const;
  Tensor operator*(Scalar s) const;
  Tensor MatMul(const Tensor& other) const;
  Tensor Transpose() const;
  /// Row r of the result is row map[r] of this tensor.
  Tensor GatherRows(const std::vector<int>& map) const;

  Scalar Sum() const;
  Scalar Mean() const;
  Scalar MaxAbs() const;
  /// Frobenius norm.
  Scalar Norm() const;
  /// Flat dot product (same shape).
  Scalar Dot(const Tensor& other) const;

  /// Per-row softmax, numerically stabilized.
  Tensor SoftmaxRows() const;

  /// Human-readable dump for debugging (rows capped).
  std::string ToString(int max_rows = 8) const;

 private:
  struct Uninitialized {};
  /// Storage whose every entry the caller overwrites before reading.
  Tensor(int rows, int cols, Uninitialized);

  void Allocate(int rows, int cols);
  void Deallocate();

  Scalar* data_ = nullptr;
  int rows_;
  int cols_;
};

inline Tensor operator*(Scalar s, const Tensor& t) { return t * s; }

/// Whether a Gemm operand is read as stored or transposed.
enum class Trans { kNo, kYes };
/// Whether Gemm overwrites C or adds the product onto it.
enum class GemmMode { kAssign, kAccumulate };

/// C = op(A) * op(B), or C += op(A) * op(B), without materializing a
/// transpose or a temporary product. C must already have the product's
/// shape; with kAssign its prior contents are never read. Each output is
/// one ascending-k chain starting at +0.0, added once onto C when
/// accumulating — so the result is bit-identical to transposing, calling
/// MatMul and then AddInPlace, at any thread count and on any kernel
/// backend. C must not alias A or B.
void Gemm(const Tensor& a, Trans op_a, const Tensor& b, Trans op_b, Tensor& c,
          GemmMode mode);

}  // namespace tgsim::nn

#endif  // TGSIM_NN_TENSOR_H_
