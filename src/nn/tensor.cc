#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/memory_tracker.h"
#include "nn/kernels.h"
#include "parallel/parallel_for.h"

namespace tgsim::nn {

namespace {

using parallel::kElementwiseGrain;
using parallel::RowGrain;

/// Gemm output tiles: 32 rows x 64 columns, a multiple of every
/// microkernel shape. Tiling both output dimensions lets a 32 x n weight
/// gradient spread over the pool as well as an m x 32 activation product.
constexpr int kGemmRowTile = 32;
constexpr int kGemmColTile = 64;

/// Multiply-adds per Gemm task: a product below this runs inline as one
/// block, a larger one is chunked into tasks of about this size.
constexpr int64_t kGemmTaskWork = int64_t{1} << 17;

}  // namespace

void Tensor::Allocate(int rows, int cols) {
  TGSIM_CHECK_GE(rows, 0);
  TGSIM_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (n > 0) {
    data_ = new Scalar[n];
    MemoryTracker::Global().Allocate(n * sizeof(Scalar));
  } else {
    data_ = nullptr;
  }
}

void Tensor::Deallocate() {
  if (data_ != nullptr) {
    MemoryTracker::Global().Release(static_cast<size_t>(size()) *
                                    sizeof(Scalar));
    delete[] data_;
    data_ = nullptr;
  }
  rows_ = 0;
  cols_ = 0;
}

Tensor::Tensor(int rows, int cols) {
  Allocate(rows, cols);
  if (data_ != nullptr) std::memset(data_, 0, size() * sizeof(Scalar));
}

Tensor::Tensor(int rows, int cols, Uninitialized) { Allocate(rows, cols); }

Tensor::Tensor(int rows, int cols, Scalar fill) {
  Allocate(rows, cols);
  std::fill(data_, data_ + size(), fill);
}

Tensor::Tensor(int rows, int cols, std::vector<Scalar> data) {
  TGSIM_CHECK_EQ(static_cast<int64_t>(data.size()),
                 static_cast<int64_t>(rows) * cols);
  Allocate(rows, cols);
  std::copy(data.begin(), data.end(), data_);
}

Tensor::Tensor(const Tensor& other) {
  Allocate(other.rows_, other.cols_);
  if (data_ != nullptr)
    std::memcpy(data_, other.data_, size() * sizeof(Scalar));
}

Tensor::Tensor(Tensor&& other) noexcept
    : data_(other.data_), rows_(other.rows_), cols_(other.cols_) {
  other.data_ = nullptr;
  other.rows_ = 0;
  other.cols_ = 0;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (!SameShape(other)) {
    Deallocate();
    Allocate(other.rows_, other.cols_);
  }
  if (data_ != nullptr)
    std::memcpy(data_, other.data_, size() * sizeof(Scalar));
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  Deallocate();
  data_ = other.data_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  other.data_ = nullptr;
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Tensor::~Tensor() { Deallocate(); }

Tensor Tensor::Identity(int n) {
  Tensor t(n, n);
  for (int i = 0; i < n; ++i) t.at(i, i) = 1.0;
  return t;
}

Tensor Tensor::Randn(Rng& rng, int rows, int cols, Scalar stddev) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) t.data_[i] = rng.Normal() * stddev;
  return t;
}

Tensor Tensor::RandUniform(Rng& rng, int rows, int cols, Scalar lo,
                           Scalar hi) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) t.data_[i] = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::GlorotUniform(Rng& rng, int fan_in, int fan_out) {
  Scalar limit = std::sqrt(6.0 / (fan_in + fan_out));
  return RandUniform(rng, fan_in, fan_out, -limit, limit);
}

void Tensor::Fill(Scalar v) { std::fill(data_, data_ + size(), v); }

void Tensor::AddInPlace(const Tensor& other) {
  TGSIM_CHECK(SameShape(other));
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::AddRow(data_ + b, other.data_ + b,
                                          static_cast<int>(e - b));
                        });
}

void Tensor::Axpy(Scalar alpha, const Tensor& other) {
  TGSIM_CHECK(SameShape(other));
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::AxpyRow(alpha, other.data_ + b, data_ + b,
                                           static_cast<int>(e - b));
                        });
}

void Tensor::ScaleInPlace(Scalar alpha) {
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::ScaleRow(data_ + b, alpha,
                                            static_cast<int>(e - b));
                        });
}

void Tensor::AddRowVectorInPlace(const Tensor& vec) {
  TGSIM_CHECK_EQ(vec.rows(), 1);
  TGSIM_CHECK_EQ(vec.cols(), cols_);
  const int64_t row_grain = RowGrain(cols_);
  parallel::ParallelFor(0, rows_, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r)
      kernels::AddRow(row(static_cast<int>(r)), vec.data_, cols_);
  });
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out(*this);
  out.AddInPlace(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  TGSIM_CHECK(SameShape(other));
  Tensor out(*this);
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i)
                            out.data_[i] -= other.data_[i];
                        });
  return out;
}

Tensor Tensor::CwiseMul(const Tensor& other) const {
  TGSIM_CHECK(SameShape(other));
  Tensor out(*this);
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::MulRow(out.data_ + b, other.data_ + b,
                                          static_cast<int>(e - b));
                        });
  return out;
}

Tensor Tensor::operator*(Scalar s) const {
  Tensor out(*this);
  out.ScaleInPlace(s);
  return out;
}

Tensor Tensor::MatMul(const Tensor& other) const {
  TGSIM_CHECK_EQ(cols_, other.rows_);
  Tensor out(rows_, other.cols_, Uninitialized{});
  Gemm(*this, Trans::kNo, other, Trans::kNo, out, GemmMode::kAssign);
  return out;
}

Tensor Tensor::Transpose() const {
  Tensor out(cols_, rows_);
  // Chunk over output rows (= input columns): each chunk owns a disjoint
  // band of the output.
  const int64_t row_grain = RowGrain(rows_);
  parallel::ParallelFor(0, cols_, row_grain, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c)
      for (int r = 0; r < rows_; ++r)
        out.at(static_cast<int>(c), r) = at(r, static_cast<int>(c));
  });
  return out;
}

Tensor Tensor::GatherRows(const std::vector<int>& map) const {
  Tensor out(static_cast<int>(map.size()), cols_);
  const int64_t row_grain = RowGrain(cols_);
  parallel::ParallelFor(
      0, static_cast<int64_t>(map.size()), row_grain,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          TGSIM_DCHECK(map[static_cast<size_t>(i)] >= 0 &&
                       map[static_cast<size_t>(i)] < rows_);
          std::memcpy(out.row(static_cast<int>(i)),
                      row(map[static_cast<size_t>(i)]),
                      static_cast<size_t>(cols_) * sizeof(Scalar));
        }
      });
  return out;
}

// Scalar reductions (Sum/Dot/MaxAbs) stay serial: chunked accumulation
// would change the floating-point association relative to the established
// serial semantics, and at O(n) memory-bound cost there is little to win.
Scalar Tensor::Sum() const {
  Scalar s = 0.0;
  for (int64_t i = 0; i < size(); ++i) s += data_[i];
  return s;
}

Scalar Tensor::Mean() const {
  TGSIM_CHECK_GT(size(), 0);
  return Sum() / static_cast<Scalar>(size());
}

Scalar Tensor::MaxAbs() const {
  Scalar m = 0.0;
  for (int64_t i = 0; i < size(); ++i)
    m = std::max(m, std::fabs(data_[i]));
  return m;
}

Scalar Tensor::Norm() const { return std::sqrt(Dot(*this)); }

Scalar Tensor::Dot(const Tensor& other) const {
  TGSIM_CHECK(SameShape(other));
  Scalar s = 0.0;
  for (int64_t i = 0; i < size(); ++i) s += data_[i] * other.data_[i];
  return s;
}

Tensor Tensor::SoftmaxRows() const {
  Tensor out(rows_, cols_);
  const int64_t row_grain = RowGrain(cols_);
  parallel::ParallelFor(0, rows_, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
      kernels::SoftmaxRow(row(r), out.row(r), cols_);
    }
  });
  return out;
}

void Gemm(const Tensor& a, Trans op_a, const Tensor& b, Trans op_b, Tensor& c,
          GemmMode mode) {
  const bool ta = op_a == Trans::kYes;
  const bool tb = op_b == Trans::kYes;
  const int m = ta ? a.cols() : a.rows();
  const int k = ta ? a.rows() : a.cols();
  const int n = tb ? b.rows() : b.cols();
  TGSIM_CHECK_EQ(tb ? b.cols() : b.rows(), k);
  TGSIM_CHECK_EQ(c.rows(), m);
  TGSIM_CHECK_EQ(c.cols(), n);
  TGSIM_DCHECK(c.data() != a.data() && c.data() != b.data());
  if (m == 0 || n == 0) return;
  const bool accumulate = mode == GemmMode::kAccumulate;
  if (k == 0) {
    // Every chain is empty: +0.0, added onto C when accumulating. Handled
    // here so no offset is ever applied to an empty operand's null data.
    for (int64_t i = 0; i < c.size(); ++i)
      c.data()[i] = accumulate ? c.data()[i] + 0.0 : 0.0;
    return;
  }
  // A transposed A is the same buffer read with swapped strides.
  const int64_t a_rs = ta ? 1 : k;
  const int64_t a_cs = ta ? m : 1;

  // The microkernels read B one k-row at a time, so a transposed B is
  // packed once into a k x n row-major panel that every tile then reads.
  // The panel is the calling thread's and is reused across calls: no
  // allocation once it has grown, and nothing else runs on this thread
  // until the tiles below have finished.
  const Scalar* bp = b.data();
  if (tb) {
    thread_local std::vector<Scalar> panel;
    panel.resize(static_cast<size_t>(k) * static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      const Scalar* src = b.row(j);
      for (int kk = 0; kk < k; ++kk)
        panel[static_cast<size_t>(kk) * n + j] = src[kk];
    }
    bp = panel.data();
  }
  // Output rows [i0, i1) x columns [j0, j1).
  auto block = [&](int i0, int i1, int j0, int j1) {
    kernels::GemmBlock(i1 - i0, j1 - j0, k, a.data() + i0 * a_rs, a_rs, a_cs,
                       bp + j0, n, c.row(i0) + j0, n, accumulate);
  };

  const int64_t work = static_cast<int64_t>(m) * n * k;
  // One-row products (per-step recurrent updates, generation-time heads)
  // and small products stay inline: no pool hand-off, no tiling.
  if (m == 1 || work <= kGemmTaskWork) {
    block(0, m, 0, n);
    return;
  }
  // Tiles run column-major so a task's consecutive tiles share one block
  // of B columns. Every output belongs to exactly one tile and its chain
  // never crosses a tile, so the tiling cannot change a bit.
  const int row_tiles = (m + kGemmRowTile - 1) / kGemmRowTile;
  const int col_tiles = (n + kGemmColTile - 1) / kGemmColTile;
  const int64_t tile_work =
      static_cast<int64_t>(kGemmRowTile) * kGemmColTile * k;
  const int64_t grain = std::max<int64_t>(1, kGemmTaskWork / tile_work);
  parallel::ParallelFor(
      0, static_cast<int64_t>(row_tiles) * col_tiles, grain,
      [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int i0 = static_cast<int>(t % row_tiles) * kGemmRowTile;
          const int j0 = static_cast<int>(t / row_tiles) * kGemmColTile;
          block(i0, std::min(m, i0 + kGemmRowTile), j0,
                std::min(n, j0 + kGemmColTile));
        }
      });
}

std::string Tensor::ToString(int max_rows) const {
  std::ostringstream os;
  os << "Tensor(" << rows_ << "x" << cols_ << ")";
  int shown = std::min(rows_, max_rows);
  for (int r = 0; r < shown; ++r) {
    os << "\n  [";
    for (int c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << at(r, c);
    }
    os << "]";
  }
  if (shown < rows_) os << "\n  ... (" << rows_ - shown << " more rows)";
  return os.str();
}

}  // namespace tgsim::nn
