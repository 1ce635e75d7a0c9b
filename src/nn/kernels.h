#ifndef TGSIM_NN_KERNELS_H_
#define TGSIM_NN_KERNELS_H_

#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/simd.h"
#include "nn/tensor.h"

#if defined(_MSC_VER)
#define TGSIM_RESTRICT __restrict
#else
#define TGSIM_RESTRICT __restrict__
#endif

namespace tgsim::nn::kernels {

/// Row-level microkernels shared by the Tensor math, the autograd tape,
/// the optimizers, and the generators' hand-rolled logit/softmax loops.
/// The public entry points below dispatch through a per-ISA table resolved
/// once at runtime (see simd.h); `kernels::scalar` holds the reference
/// implementations every backend must match bit for bit. The determinism
/// contract:
///
///  - Sums keep a single strictly ascending-index, left-associated
///    accumulation chain per OUTPUT: FP addition is not associative, and
///    the contract pins outputs bit-identical to the serial reference at
///    any thread count and on any backend. SIMD variants may only
///    vectorize across independent outputs (DotPanel4 runs four such
///    chains at once, one per lane).
///  - GEMM (GemmBlock, under Tensor::MatMul and nn::Gemm) is that rule on
///    a matrix: output (i, j) is acc = +0.0, then acc += A(i,k) * B(k,j)
///    for ascending k, each product and sum separately rounded (no FMA),
///    and only then assigned to C or added once onto it. Register tiles
///    hold several such chains side by side; how outputs are tiled, and
///    which thread owns a tile, never touches a chain, so the result
///    equals Dot, DotPanel4 and the naive triple loop bit for bit.
///  - ExpRowSum is the one sanctioned fixed-shape reduction: four
///    accumulators fed from consecutive indices, combined ((a0+a1)+a2)+a3,
///    with an ascending scalar tail. The shape depends only on n, so the
///    scalar reference and every SIMD variant produce the same bits.
///  - exp() is NOT glibc's: all backends share detail::ExpD, a clamped
///    Cody-Waite + degree-13 Horner polynomial whose operations map 1:1
///    onto SIMD lanes. Accuracy is ~1-2 ulp; inputs must not be NaN
///    (callers never produce one — logits and losses are NaN-free by
///    construction, and TGSIM_DCHECK guards the debug build).
///  - Max reductions use a fixed 4-lane shape and normalize the result
///    with `+ 0.0`, so equal-magnitude zeros of either sign reduce to the
///    same bits as the serial scan (the old "up to the sign of equal
///    zeros" caveat is gone).
///  - Per-element maps (exp, divide, multiply, axpy) vectorize freely:
///    each output element is an independent exact IEEE operation.
///
/// Aliasing: elementwise kernels whose doc says "in place allowed" accept
/// full aliasing (dst == src exactly); partial overlap is never allowed.
///
/// `Dot` and `DotSum2` are intentionally the serial chain in EVERY
/// backend: a single-accumulator FP add chain is latency-bound, lanes
/// cannot speed it up without changing the association, and the TGAE
/// sparse/dense pin (a sparse-decode logit is a Dot, the dense decode a
/// GEMM output) depends on that association. They bypass the dispatch
/// table entirely so the compiler can keep inlining them into the
/// generation hot loops. Batched throughput comes from DotPanel4 and
/// GemmBlock instead.

namespace detail {

// Deterministic exp shared by all backends. Clamp bounds keep the
// magic-shift rounding and the 2^k scaling in exact range: below kExpLo
// the true result underflows to 0 even through the two-step scaling,
// above kExpHi it overflows to inf.
inline constexpr Scalar kExpLo = -745.5;
inline constexpr Scalar kExpHi = 709.9;
// 1.5 * 2^52: adding then subtracting rounds to nearest integer in the
// current (round-to-nearest) mode — same trick scalar and vector.
inline constexpr Scalar kExpShift = 6755399441055744.0;
inline constexpr Scalar kExpLog2e = 1.44269504088896340736;
// fdlibm split of ln 2: k * kExpLn2Hi is exact for |k| <= 1075 (11 bits
// of k against 33 significant bits of the hi part).
inline constexpr Scalar kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr Scalar kExpLn2Lo = 1.90821492927058770002e-10;
inline constexpr Scalar kExpCoeff[14] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
};

/// exp(x) to ~1-2 ulp with every step an exact lane-parallel IEEE op.
/// The two clamp lines mirror _mm256_max_pd(lo, x) / _mm256_min_pd(hi, x)
/// operand order so +/-inf and out-of-range inputs take identical paths
/// in scalar and vector code. Precondition: x is not NaN (the scalar
/// int64 cast of NaN would be UB).
inline Scalar ExpD(Scalar x) {
  Scalar xs = kExpLo > x ? kExpLo : x;
  xs = kExpHi < xs ? kExpHi : xs;
  const Scalar t = xs * kExpLog2e + kExpShift;
  const Scalar k = t - kExpShift;
  Scalar r = xs - k * kExpLn2Hi;
  r = r - k * kExpLn2Lo;
  Scalar p = kExpCoeff[13];
  for (int j = 12; j >= 0; --j) p = p * r + kExpCoeff[j];
  // Split 2^k into 2^k1 * 2^k2 so the intermediate scale factors stay
  // normal even when the result is denormal or near overflow.
  const int64_t ki = static_cast<int64_t>(k);
  const int64_t k1 = ki >> 1;
  const int64_t k2 = ki - k1;
  const Scalar s1 =
      std::bit_cast<Scalar>(static_cast<uint64_t>(k1 + 1023) << 52);
  const Scalar s2 =
      std::bit_cast<Scalar>(static_cast<uint64_t>(k2 + 1023) << 52);
  return (p * s1) * s2;
}

}  // namespace detail

namespace scalar {

/// Maximum over x[0..n), n >= 1, normalized so a zero maximum is always
/// +0.0. Fixed 4-lane shape (mirrored lane for lane by the SIMD
/// variants); max over non-NaN doubles is associative/commutative and the
/// trailing `+ 0.0` collapses -0.0 to +0.0, so the result is bit-identical
/// to the serial scan regardless of lane combination order.
inline Scalar RowMax(const Scalar* TGSIM_RESTRICT x, int n) {
  if (n < 8) {
    Scalar m = x[0];
    for (int i = 1; i < n; ++i) m = x[i] > m ? x[i] : m;
    return m + 0.0;
  }
  Scalar m0 = x[0], m1 = x[1], m2 = x[2], m3 = x[3];
  int i = 4;
  for (; i + 3 < n; i += 4) {
    m0 = x[i] > m0 ? x[i] : m0;
    m1 = x[i + 1] > m1 ? x[i + 1] : m1;
    m2 = x[i + 2] > m2 ? x[i + 2] : m2;
    m3 = x[i + 3] > m3 ? x[i + 3] : m3;
  }
  for (; i < n; ++i) m0 = x[i] > m0 ? x[i] : m0;
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  return (m2 > m0 ? m2 : m0) + 0.0;
}

/// dst[i] = ExpD(x[i] - m); returns the fixed-shape sum of dst:
/// four accumulators over the i+3 < n prefix (accumulator l takes indices
/// congruent to l mod 4), combined ((a0+a1)+a2)+a3, then an ascending
/// scalar tail. In place allowed (dst == x).
inline Scalar ExpRowSum(const Scalar* x, Scalar m, Scalar* dst, int n) {
  Scalar a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  int i = 0;
  for (; i + 3 < n; i += 4) {
    dst[i] = detail::ExpD(x[i] - m);
    dst[i + 1] = detail::ExpD(x[i + 1] - m);
    dst[i + 2] = detail::ExpD(x[i + 2] - m);
    dst[i + 3] = detail::ExpD(x[i + 3] - m);
    a0 += dst[i];
    a1 += dst[i + 1];
    a2 += dst[i + 2];
    a3 += dst[i + 3];
  }
  Scalar z = ((a0 + a1) + a2) + a3;
  for (; i < n; ++i) {
    dst[i] = detail::ExpD(x[i] - m);
    z += dst[i];
  }
  return z;
}

/// dst[i] = ExpD(x[i] - m), no sum. In place allowed.
inline void ExpRow(const Scalar* x, Scalar m, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = detail::ExpD(x[i] - m);
}

/// x[i] /= z: exact per-element IEEE division (kept as a division, never
/// a reciprocal multiply).
inline void DivRow(Scalar* TGSIM_RESTRICT x, Scalar z, int n) {
  for (int i = 0; i < n; ++i) x[i] /= z;
}

/// Ascending-index dot product: single left-associated chain —
/// bit-identical to the naive loop (and to a GemmBlock output, which the
/// TGAE sparse/dense pin relies on).
inline Scalar Dot(const Scalar* TGSIM_RESTRICT a,
                  const Scalar* TGSIM_RESTRICT b, int n) {
  Scalar s = 0.0;
  for (int k = 0; k < n; ++k) s += a[k] * b[k];
  return s;
}

/// Ascending-index sum_k a[k] * (b1[k] + b2[k]) — the TagGen transition
/// logit against a candidate embedding split into node + time halves.
inline Scalar DotSum2(const Scalar* TGSIM_RESTRICT a,
                      const Scalar* TGSIM_RESTRICT b1,
                      const Scalar* TGSIM_RESTRICT b2, int n) {
  Scalar s = 0.0;
  for (int k = 0; k < n; ++k) s += a[k] * (b1[k] + b2[k]);
  return s;
}

/// Four dot products against one k-major 4-column panel block:
///   out4[j] = sum_k h[k] * panel[4*k + j],   j in 0..3,
/// each out4[j] its own ascending-k left-associated chain — bit-identical
/// to Dot(h, column j). Four independent chains per step is what breaks
/// the add-latency bound the serial Dot is stuck at; the SIMD variants
/// map chain j onto lane j.
inline void DotPanel4(const Scalar* TGSIM_RESTRICT h,
                      const Scalar* TGSIM_RESTRICT panel, int d,
                      Scalar* TGSIM_RESTRICT out4) {
  Scalar s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int k = 0; k < d; ++k) {
    const Scalar hk = h[k];
    s0 += hk * panel[4 * k + 0];
    s1 += hk * panel[4 * k + 1];
    s2 += hk * panel[4 * k + 2];
    s3 += hk * panel[4 * k + 3];
  }
  out4[0] = s0;
  out4[1] = s1;
  out4[2] = s2;
  out4[3] = s3;
}

/// o[j] += a * b[j].
inline void AxpyRow(Scalar a, const Scalar* TGSIM_RESTRICT b,
                    Scalar* TGSIM_RESTRICT o, int n) {
  for (int j = 0; j < n; ++j) o[j] += a * b[j];
}

/// One register tile of the GEMM below: an MR x NR block of outputs, each
/// its own ascending-kk chain that starts at +0.0 and is assigned to, or
/// added once onto, its C entry. Strides as in GemmBlock.
template <int MR, int NR>
inline void GemmTile(int k, const Scalar* TGSIM_RESTRICT a, int64_t a_rs,
                     int64_t a_cs, const Scalar* TGSIM_RESTRICT b,
                     int64_t ldb, Scalar* TGSIM_RESTRICT c, int64_t ldc,
                     bool accumulate) {
  Scalar acc[MR][NR] = {};
  for (int kk = 0; kk < k; ++kk) {
    const Scalar* bk = b + kk * ldb;
    for (int ii = 0; ii < MR; ++ii) {
      const Scalar aik = a[ii * a_rs + kk * a_cs];
      for (int jj = 0; jj < NR; ++jj) acc[ii][jj] += aik * bk[jj];
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    Scalar* ci = c + ii * ldc;
    for (int jj = 0; jj < NR; ++jj)
      ci[jj] = accumulate ? ci[jj] + acc[ii][jj] : acc[ii][jj];
  }
}

/// C (+)= A * B over an m x n block with shared dimension k, where
///   A(i, kk) = a[i*a_rs + kk*a_cs]   (a transposed A just swaps strides),
///   B(kk, j) = b[kk*ldb + j],        C(i, j) = c[i*ldc + j].
/// Every output is one chain: acc = +0.0; acc += A(i,kk) * B(kk,j) for
/// ascending kk; then C(i,j) = acc, or C(i,j) + acc when accumulating.
/// That is bit for bit the naive triple loop and Dot on the same
/// operands; the blocking only decides which outputs share a pass over B.
/// k == 0 still writes (+0.0, or C + 0.0).
inline void GemmBlock(int m, int n, int k, const Scalar* a, int64_t a_rs,
                      int64_t a_cs, const Scalar* b, int64_t ldb, Scalar* c,
                      int64_t ldc, bool accumulate) {
  int i = 0;
  for (; i + 3 < m; i += 4) {
    const Scalar* ai = a + i * a_rs;
    Scalar* ci = c + i * ldc;
    int j = 0;
    for (; j + 3 < n; j += 4)
      GemmTile<4, 4>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc, accumulate);
    for (; j < n; ++j)
      GemmTile<4, 1>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc, accumulate);
  }
  for (; i < m; ++i) {
    const Scalar* ai = a + i * a_rs;
    Scalar* ci = c + i * ldc;
    int j = 0;
    for (; j + 7 < n; j += 8)
      GemmTile<1, 8>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc, accumulate);
    for (; j < n; ++j)
      GemmTile<1, 1>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc, accumulate);
  }
}

/// dst[i] += x[i].
inline void AddRow(Scalar* TGSIM_RESTRICT dst, const Scalar* TGSIM_RESTRICT x,
                   int n) {
  for (int i = 0; i < n; ++i) dst[i] += x[i];
}

/// x[i] *= s.
inline void ScaleRow(Scalar* TGSIM_RESTRICT x, Scalar s, int n) {
  for (int i = 0; i < n; ++i) x[i] *= s;
}

/// dst[i] *= x[i]. In place allowed.
inline void MulRow(Scalar* dst, const Scalar* x, int n) {
  for (int i = 0; i < n; ++i) dst[i] *= x[i];
}

/// dst[i] += a[i] * b[i] (two roundings: multiply then add — never fused).
inline void MulAddRow(Scalar* TGSIM_RESTRICT dst,
                      const Scalar* TGSIM_RESTRICT a,
                      const Scalar* TGSIM_RESTRICT b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = dst[i] + a[i] * b[i];
}

/// dst[i] = s * dst[i] + a * x[i] — the SGD momentum update
/// (v = mu*v + 1.0*g) in one pass; with a == 1.0 the second product is
/// exact, so this matches the old ScaleInPlace-then-Axpy sequence bit for
/// bit.
inline void ScaleAddRow(Scalar* TGSIM_RESTRICT dst, Scalar s,
                        const Scalar* TGSIM_RESTRICT x, Scalar a, int n) {
  for (int i = 0; i < n; ++i) dst[i] = s * dst[i] + a * x[i];
}

/// dst[i] = x[i] - s. In place allowed.
inline void ShiftRow(const Scalar* x, Scalar s, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = x[i] - s;
}

/// dst[i] = 1 / (1 + ExpD(-x[i])). In place allowed.
inline void SigmoidRow(const Scalar* x, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = 1.0 / (1.0 + detail::ExpD(-x[i]));
}

/// gi[i] += go[i] * (y[i] * (1 - y[i])) — sigmoid backward against the
/// saved forward output y.
inline void SigmoidBwdRow(const Scalar* TGSIM_RESTRICT go,
                          const Scalar* TGSIM_RESTRICT y,
                          Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] * (y[i] * (1.0 - y[i]));
}

/// dst[i] = x[i] > 0 ? x[i] : +0.0. NOT LeakyRelu with slope 0: that
/// would write -0.0 for negative inputs (0 * -x), this writes +0.0 like
/// the reference ternary.
inline void ReluRow(const Scalar* x, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : 0.0;
}

/// gi[i] += go[i] * (x[i] > 0 ? 1.0 : 0.0). The multiply is real (not a
/// mask-and): go * 0.0 keeps go's sign on the zero, exactly like the
/// serial reference.
inline void ReluBwdRow(const Scalar* TGSIM_RESTRICT go,
                       const Scalar* TGSIM_RESTRICT x,
                       Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

/// dst[i] = x[i] > 0 ? x[i] : slope * x[i]. In place allowed.
inline void LeakyReluRow(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

/// gi[i] += go[i] * (x[i] > 0 ? 1.0 : slope).
inline void LeakyReluBwdRow(const Scalar* TGSIM_RESTRICT go,
                            const Scalar* TGSIM_RESTRICT x, Scalar slope,
                            Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : slope);
}

/// gi[i] += y[i] * (go[i] - dot) — softmax backward with the row dot
/// precomputed by the caller (via Dot, keeping its serial chain).
inline void SoftmaxBwdRow(const Scalar* TGSIM_RESTRICT go,
                          const Scalar* TGSIM_RESTRICT y, Scalar dot,
                          Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += y[i] * (go[i] - dot);
}

/// gi[i] += go[i] - p[i] * gsum — log-softmax backward with the row grad
/// sum precomputed by the caller's serial chain.
inline void LogSoftmaxBwdRow(const Scalar* TGSIM_RESTRICT go,
                             const Scalar* TGSIM_RESTRICT p, Scalar gsum,
                             Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] - p[i] * gsum;
}

/// gi[i] += (a * e[i]) / z — the dense half of the sampled-softmax
/// backward (a = upstream_grad * mass, e = saved exp row, z = row sum).
inline void AxpyDivRow(Scalar a, const Scalar* TGSIM_RESTRICT e, Scalar z,
                       Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += (a * e[i]) / z;
}

/// One fused Adam update over a contiguous chunk — the exact expression
/// sequence of the serial optimizer loop, element by element:
///   m[j] = beta1*m[j] + (1-beta1)*g[j]
///   v[j] = beta2*v[j] + ((1-beta2)*g[j])*g[j]
///   x[j] -= (lr * (m[j]/bias1)) / (sqrt(v[j]/bias2) + eps)
/// sqrt and divide are correctly rounded, so lanes match scalar exactly.
inline void AdamRow(Scalar* TGSIM_RESTRICT x, Scalar* TGSIM_RESTRICT m,
                    Scalar* TGSIM_RESTRICT v, const Scalar* TGSIM_RESTRICT g,
                    Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                    Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                    Scalar lr, Scalar eps, int n) {
  for (int j = 0; j < n; ++j) {
    const Scalar gj = g[j];
    m[j] = beta1 * m[j] + one_minus_beta1 * gj;
    v[j] = beta2 * v[j] + (one_minus_beta2 * gj) * gj;
    const Scalar m_hat = m[j] / bias1;
    const Scalar v_hat = v[j] / bias2;
    x[j] -= (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Public dispatched entry points. Same names and semantics as the scalar
// reference above; each routes through the one-time-resolved backend
// table. Dot/DotSum2 deliberately bypass the table (identical in every
// backend; inlining matters in the generation hot loops).
// ---------------------------------------------------------------------------

inline Scalar RowMax(const Scalar* x, int n) {
  TGSIM_DCHECK(n >= 1);
  return Ops().row_max(x, n);
}

inline Scalar ExpRowSum(const Scalar* x, Scalar m, Scalar* dst, int n) {
  return Ops().exp_row_sum(x, m, dst, n);
}

inline void ExpRow(const Scalar* x, Scalar m, Scalar* dst, int n) {
  Ops().exp_row(x, m, dst, n);
}

inline void DivRow(Scalar* x, Scalar z, int n) { Ops().div_row(x, z, n); }

inline Scalar Dot(const Scalar* TGSIM_RESTRICT a,
                  const Scalar* TGSIM_RESTRICT b, int n) {
  return scalar::Dot(a, b, n);
}

inline Scalar DotSum2(const Scalar* TGSIM_RESTRICT a,
                      const Scalar* TGSIM_RESTRICT b1,
                      const Scalar* TGSIM_RESTRICT b2, int n) {
  return scalar::DotSum2(a, b1, b2, n);
}

inline void DotPanel4(const Scalar* h, const Scalar* panel, int d,
                      Scalar* out4) {
  Ops().dot_panel4(h, panel, d, out4);
}

inline void AxpyRow(Scalar a, const Scalar* b, Scalar* o, int n) {
  Ops().axpy_row(a, b, o, n);
}

inline void GemmBlock(int m, int n, int k, const Scalar* a, int64_t a_rs,
                      int64_t a_cs, const Scalar* b, int64_t ldb, Scalar* c,
                      int64_t ldc, bool accumulate) {
  Ops().gemm_block(m, n, k, a, a_rs, a_cs, b, ldb, c, ldc, accumulate);
}

inline void AddRow(Scalar* dst, const Scalar* x, int n) {
  Ops().add_row(dst, x, n);
}

inline void ScaleRow(Scalar* x, Scalar s, int n) { Ops().scale_row(x, s, n); }

inline void MulRow(Scalar* dst, const Scalar* x, int n) {
  Ops().mul_row(dst, x, n);
}

inline void MulAddRow(Scalar* dst, const Scalar* a, const Scalar* b, int n) {
  Ops().mul_add_row(dst, a, b, n);
}

inline void ScaleAddRow(Scalar* dst, Scalar s, const Scalar* x, Scalar a,
                        int n) {
  Ops().scale_add_row(dst, s, x, a, n);
}

inline void ShiftRow(const Scalar* x, Scalar s, Scalar* dst, int n) {
  Ops().shift_row(x, s, dst, n);
}

inline void SigmoidRow(const Scalar* x, Scalar* dst, int n) {
  Ops().sigmoid_row(x, dst, n);
}

inline void SigmoidBwdRow(const Scalar* go, const Scalar* y, Scalar* gi,
                          int n) {
  Ops().sigmoid_bwd_row(go, y, gi, n);
}

inline void ReluRow(const Scalar* x, Scalar* dst, int n) {
  Ops().relu_row(x, dst, n);
}

inline void ReluBwdRow(const Scalar* go, const Scalar* x, Scalar* gi, int n) {
  Ops().relu_bwd_row(go, x, gi, n);
}

inline void LeakyReluRow(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  Ops().leaky_relu_row(x, slope, dst, n);
}

inline void LeakyReluBwdRow(const Scalar* go, const Scalar* x, Scalar slope,
                            Scalar* gi, int n) {
  Ops().leaky_relu_bwd_row(go, x, slope, gi, n);
}

inline void SoftmaxBwdRow(const Scalar* go, const Scalar* y, Scalar dot,
                          Scalar* gi, int n) {
  Ops().softmax_bwd_row(go, y, dot, gi, n);
}

inline void LogSoftmaxBwdRow(const Scalar* go, const Scalar* p, Scalar gsum,
                             Scalar* gi, int n) {
  Ops().logsoftmax_bwd_row(go, p, gsum, gi, n);
}

inline void AxpyDivRow(Scalar a, const Scalar* e, Scalar z, Scalar* gi,
                       int n) {
  Ops().axpy_div_row(a, e, z, gi, n);
}

inline void AdamRow(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                    Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                    Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                    Scalar lr, Scalar eps, int n) {
  Ops().adam_row(x, m, v, g, beta1, one_minus_beta1, beta2, one_minus_beta2,
                 bias1, bias2, lr, eps, n);
}

/// Stabilized softmax of one contiguous row into a distinct destination
/// (src and dst must not alias). The row sums to 1 afterwards.
/// Composition of RowMax + ExpRowSum + DivRow — bit-identical to
/// Tensor::SoftmaxRows on the same row.
inline void SoftmaxRow(const Scalar* src, Scalar* dst, int n) {
  const Scalar m = RowMax(src, n);
  const Scalar z = ExpRowSum(src, m, dst, n);
  DivRow(dst, z, n);
}

}  // namespace tgsim::nn::kernels

#endif  // TGSIM_NN_KERNELS_H_
