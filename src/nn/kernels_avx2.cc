// AVX2 kernel table. Compiled only on x86-64 with
// TGSIM_HAVE_AVX2_KERNELS, with -mavx2 -ffp-contract=off and WITHOUT
// -mfma: no FMA intrinsics appear here, so every multiply and add is a
// separately rounded IEEE op — the same two-rounding sequence the scalar
// reference performs. Each kernel mirrors its scalar counterpart lane for
// lane (see kernels.h for the shape contract); the scalar tails reuse the
// exact reference expressions.
#if defined(TGSIM_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include "nn/kernels.h"
#include "nn/simd.h"

namespace tgsim::nn::kernels {
namespace {

/// Vector ExpD: identical operation sequence to detail::ExpD, four lanes
/// at a time. The clamp order (max_pd(lo, x), min_pd(hi, xs)) is what the
/// scalar ternaries mirror, so +/-inf and out-of-range inputs land on the
/// same bits. k is integral after the magic-shift round, so the epi32
/// conversion is exact; the exponent split k1 = k >> 1, k2 = k - k1 is
/// done in 32-bit (AVX2 has no 64-bit arithmetic shift) and matches the
/// scalar int64 arithmetic on this bounded range.
inline __m256d ExpV(__m256d x) {
  const __m256d lo = _mm256_set1_pd(detail::kExpLo);
  const __m256d hi = _mm256_set1_pd(detail::kExpHi);
  __m256d xs = _mm256_max_pd(lo, x);
  xs = _mm256_min_pd(hi, xs);
  const __m256d shift = _mm256_set1_pd(detail::kExpShift);
  const __m256d t = _mm256_add_pd(
      _mm256_mul_pd(xs, _mm256_set1_pd(detail::kExpLog2e)), shift);
  const __m256d k = _mm256_sub_pd(t, shift);
  __m256d r =
      _mm256_sub_pd(xs, _mm256_mul_pd(k, _mm256_set1_pd(detail::kExpLn2Hi)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(k, _mm256_set1_pd(detail::kExpLn2Lo)));
  __m256d p = _mm256_set1_pd(detail::kExpCoeff[13]);
  for (int j = 12; j >= 0; --j)
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(detail::kExpCoeff[j]));
  const __m128i ki = _mm256_cvtpd_epi32(k);
  const __m128i k1 = _mm_srai_epi32(ki, 1);
  const __m128i k2 = _mm_sub_epi32(ki, k1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256i e1 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(k1, bias)), 52);
  const __m256i e2 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(k2, bias)), 52);
  const __m256d s1 = _mm256_castsi256_pd(e1);
  const __m256d s2 = _mm256_castsi256_pd(e2);
  return _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
}

Scalar RowMaxAvx2(const Scalar* x, int n) {
  // Max over a set is a unique value (up to zero sign, normalized by the
  // trailing +0.0), so unlike sums it may be reduced in any shape: four
  // independent accumulator chains break the vmaxpd latency chain that
  // would otherwise cap throughput at one element per cycle.
  if (n < 8) return scalar::RowMax(x, n);
  __m256d a0 = _mm256_loadu_pd(x);
  __m256d a1 = a0, a2 = a0, a3 = a0;
  int i = 4;
  for (; i + 15 < n; i += 16) {
    a0 = _mm256_max_pd(_mm256_loadu_pd(x + i), a0);
    a1 = _mm256_max_pd(_mm256_loadu_pd(x + i + 4), a1);
    a2 = _mm256_max_pd(_mm256_loadu_pd(x + i + 8), a2);
    a3 = _mm256_max_pd(_mm256_loadu_pd(x + i + 12), a3);
  }
  for (; i + 3 < n; i += 4) a0 = _mm256_max_pd(_mm256_loadu_pd(x + i), a0);
  __m256d acc = _mm256_max_pd(_mm256_max_pd(a0, a1), _mm256_max_pd(a2, a3));
  Scalar m[4];
  _mm256_storeu_pd(m, acc);
  for (; i < n; ++i) m[0] = x[i] > m[0] ? x[i] : m[0];
  m[0] = m[1] > m[0] ? m[1] : m[0];
  m[2] = m[3] > m[2] ? m[3] : m[2];
  return (m[2] > m[0] ? m[2] : m[0]) + 0.0;
}

Scalar ExpRowSumAvx2(const Scalar* x, Scalar m, Scalar* dst, int n) {
  const __m256d mv = _mm256_set1_pd(m);
  __m256d acc = _mm256_setzero_pd();  // lanes = a0..a3
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d e = ExpV(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv));
    _mm256_storeu_pd(dst + i, e);
    acc = _mm256_add_pd(acc, e);
  }
  Scalar a[4];
  _mm256_storeu_pd(a, acc);
  Scalar z = ((a[0] + a[1]) + a[2]) + a[3];
  for (; i < n; ++i) {
    dst[i] = detail::ExpD(x[i] - m);
    z += dst[i];
  }
  return z;
}

void ExpRowAvx2(const Scalar* x, Scalar m, Scalar* dst, int n) {
  const __m256d mv = _mm256_set1_pd(m);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i,
                     ExpV(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv)));
  for (; i < n; ++i) dst[i] = detail::ExpD(x[i] - m);
}

void DivRowAvx2(Scalar* x, Scalar z, int n) {
  const __m256d zv = _mm256_set1_pd(z);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), zv));
  for (; i < n; ++i) x[i] /= z;
}

void DotPanel4Avx2(const Scalar* h, const Scalar* panel, int d,
                   Scalar* out4) {
  __m256d acc = _mm256_setzero_pd();  // lane j = chain for output column j
  for (int k = 0; k < d; ++k) {
    const __m256d hk = _mm256_set1_pd(h[k]);
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(hk, _mm256_loadu_pd(panel + 4 * k)));
  }
  _mm256_storeu_pd(out4, acc);
}

void AxpyRowAvx2(Scalar a, const Scalar* b, Scalar* o, int n) {
  const __m256d av = _mm256_set1_pd(a);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        o + i, _mm256_add_pd(_mm256_loadu_pd(o + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(b + i))));
  for (; i < n; ++i) o[i] += a * b[i];
}

/// MR rows x NV four-wide column vectors of GEMM outputs, accumulators
/// held in registers across the whole kk loop. Lane j of acc[ii][v] is
/// exactly scalar::GemmTile's chain for output (ii, 4v + j): +0.0, then
/// one separately rounded multiply and add per kk, ascending. A 1-3
/// column tail runs as one vector whose B loads and C loads/stores are
/// masked to `tail`; its dead lanes are computed on zeros and never stored.
template <int MR, int NV, bool kMasked = false>
inline void GemmTileAvx2(int k, const Scalar* a, int64_t a_rs, int64_t a_cs,
                         const Scalar* b, int64_t ldb, Scalar* c, int64_t ldc,
                         bool accumulate, __m256i tail = __m256i()) {
  static_assert(!kMasked || NV == 1, "only a single vector is masked");
  __m256d acc[MR][NV];
  for (int ii = 0; ii < MR; ++ii)
    for (int v = 0; v < NV; ++v) acc[ii][v] = _mm256_setzero_pd();
  for (int kk = 0; kk < k; ++kk) {
    const Scalar* bk = b + kk * ldb;
    __m256d bv[NV];
    for (int v = 0; v < NV; ++v) {
      if constexpr (kMasked)
        bv[v] = _mm256_maskload_pd(bk, tail);
      else
        bv[v] = _mm256_loadu_pd(bk + 4 * v);
    }
    for (int ii = 0; ii < MR; ++ii) {
      const __m256d aik = _mm256_broadcast_sd(a + ii * a_rs + kk * a_cs);
      for (int v = 0; v < NV; ++v)
        acc[ii][v] = _mm256_add_pd(acc[ii][v], _mm256_mul_pd(aik, bv[v]));
    }
  }
  for (int ii = 0; ii < MR; ++ii)
    for (int v = 0; v < NV; ++v) {
      Scalar* cv = c + ii * ldc + 4 * v;
      if constexpr (kMasked) {
        const __m256d out =
            accumulate ? _mm256_add_pd(_mm256_maskload_pd(cv, tail), acc[ii][v])
                       : acc[ii][v];
        _mm256_maskstore_pd(cv, tail, out);
      } else {
        _mm256_storeu_pd(cv, accumulate ? _mm256_add_pd(_mm256_loadu_pd(cv),
                                                        acc[ii][v])
                                        : acc[ii][v]);
      }
    }
}

/// Four-row blocks take 4x8 tiles (eight accumulators: enough independent
/// add chains to cover the add latency); leftover rows, and so every
/// 1-row product, take 1x32 tiles for the same reason. Narrower column
/// tails fall back to 4-wide vectors, then to one masked vector.
void GemmBlockAvx2(int m, int n, int k, const Scalar* a, int64_t a_rs,
                   int64_t a_cs, const Scalar* b, int64_t ldb, Scalar* c,
                   int64_t ldc, bool accumulate) {
  const int rem = n % 4;
  const __m256i tail =
      _mm256_setr_epi64x(rem > 0 ? -1 : 0, rem > 1 ? -1 : 0, rem > 2 ? -1 : 0,
                         0);
  int i = 0;
  for (; i + 3 < m; i += 4) {
    const Scalar* ai = a + i * a_rs;
    Scalar* ci = c + i * ldc;
    int j = 0;
    for (; j + 7 < n; j += 8)
      GemmTileAvx2<4, 2>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    for (; j + 3 < n; j += 4)
      GemmTileAvx2<4, 1>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    if (j < n)
      GemmTileAvx2<4, 1, true>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                               accumulate, tail);
  }
  for (; i < m; ++i) {
    const Scalar* ai = a + i * a_rs;
    Scalar* ci = c + i * ldc;
    int j = 0;
    for (; j + 31 < n; j += 32)
      GemmTileAvx2<1, 8>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    for (; j + 7 < n; j += 8)
      GemmTileAvx2<1, 2>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    for (; j + 3 < n; j += 4)
      GemmTileAvx2<1, 1>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    if (j < n)
      GemmTileAvx2<1, 1, true>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                               accumulate, tail);
  }
}

void AddRowAvx2(Scalar* dst, const Scalar* x, int n) {
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) dst[i] += x[i];
}

void ScaleRowAvx2(Scalar* x, Scalar s, int n) {
  const __m256d sv = _mm256_set1_pd(s);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  for (; i < n; ++i) x[i] *= s;
}

void MulRowAvx2(Scalar* dst, const Scalar* x, int n) {
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) dst[i] *= x[i];
}

void MulAddRowAvx2(Scalar* dst, const Scalar* a, const Scalar* b, int n) {
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_loadu_pd(dst + i),
                      _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                    _mm256_loadu_pd(b + i))));
  for (; i < n; ++i) dst[i] = dst[i] + a[i] * b[i];
}

void ScaleAddRowAvx2(Scalar* dst, Scalar s, const Scalar* x, Scalar a,
                     int n) {
  const __m256d sv = _mm256_set1_pd(s);
  const __m256d av = _mm256_set1_pd(a);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_mul_pd(sv, _mm256_loadu_pd(dst + i)),
                      _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  for (; i < n; ++i) dst[i] = s * dst[i] + a * x[i];
}

void ShiftRowAvx2(const Scalar* x, Scalar s, Scalar* dst, int n) {
  const __m256d sv = _mm256_set1_pd(s);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), sv));
  for (; i < n; ++i) dst[i] = x[i] - s;
}

void SigmoidRowAvx2(const Scalar* x, Scalar* dst, int n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    // xor with the sign bit is exact negation, matching scalar -x[i].
    const __m256d e = ExpV(_mm256_xor_pd(_mm256_loadu_pd(x + i), sign));
    _mm256_storeu_pd(dst + i, _mm256_div_pd(one, _mm256_add_pd(one, e)));
  }
  for (; i < n; ++i) dst[i] = 1.0 / (1.0 + detail::ExpD(-x[i]));
}

void SigmoidBwdRowAvx2(const Scalar* go, const Scalar* y, Scalar* gi,
                       int n) {
  const __m256d one = _mm256_set1_pd(1.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d dydx = _mm256_mul_pd(yv, _mm256_sub_pd(one, yv));
    _mm256_storeu_pd(
        gi + i,
        _mm256_add_pd(_mm256_loadu_pd(gi + i),
                      _mm256_mul_pd(_mm256_loadu_pd(go + i), dydx)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (y[i] * (1.0 - y[i]));
}

void ReluRowAvx2(const Scalar* x, Scalar* dst, int n) {
  const __m256d zero = _mm256_setzero_pd();
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d mask = _mm256_cmp_pd(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(dst + i, _mm256_blendv_pd(zero, xv, mask));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluBwdRowAvx2(const Scalar* go, const Scalar* x, Scalar* gi, int n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    // A real multiply by the blended 1.0/0.0 (not a mask-and): go * 0.0
    // keeps go's sign on the zero, like the scalar reference.
    const __m256d d = _mm256_blendv_pd(zero, one, mask);
    _mm256_storeu_pd(
        gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i),
                              _mm256_mul_pd(_mm256_loadu_pd(go + i), d)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

void LeakyReluRowAvx2(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sv = _mm256_set1_pd(slope);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d mask = _mm256_cmp_pd(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(dst + i,
                     _mm256_blendv_pd(_mm256_mul_pd(sv, xv), xv, mask));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

void LeakyReluBwdRowAvx2(const Scalar* go, const Scalar* x, Scalar slope,
                         Scalar* gi, int n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sv = _mm256_set1_pd(slope);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    const __m256d d = _mm256_blendv_pd(sv, one, mask);
    _mm256_storeu_pd(
        gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i),
                              _mm256_mul_pd(_mm256_loadu_pd(go + i), d)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : slope);
}

void SoftmaxBwdRowAvx2(const Scalar* go, const Scalar* y, Scalar dot,
                       Scalar* gi, int n) {
  const __m256d dv = _mm256_set1_pd(dot);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d t =
        _mm256_mul_pd(_mm256_loadu_pd(y + i),
                      _mm256_sub_pd(_mm256_loadu_pd(go + i), dv));
    _mm256_storeu_pd(gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += y[i] * (go[i] - dot);
}

void LogSoftmaxBwdRowAvx2(const Scalar* go, const Scalar* p, Scalar gsum,
                          Scalar* gi, int n) {
  const __m256d gv = _mm256_set1_pd(gsum);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d t =
        _mm256_sub_pd(_mm256_loadu_pd(go + i),
                      _mm256_mul_pd(_mm256_loadu_pd(p + i), gv));
    _mm256_storeu_pd(gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += go[i] - p[i] * gsum;
}

void AxpyDivRowAvx2(Scalar a, const Scalar* e, Scalar z, Scalar* gi, int n) {
  const __m256d av = _mm256_set1_pd(a);
  const __m256d zv = _mm256_set1_pd(z);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d t =
        _mm256_div_pd(_mm256_mul_pd(av, _mm256_loadu_pd(e + i)), zv);
    _mm256_storeu_pd(gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += (a * e[i]) / z;
}

void AdamRowAvx2(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                 Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                 Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                 Scalar lr, Scalar eps, int n) {
  const __m256d b1v = _mm256_set1_pd(beta1);
  const __m256d ob1v = _mm256_set1_pd(one_minus_beta1);
  const __m256d b2v = _mm256_set1_pd(beta2);
  const __m256d ob2v = _mm256_set1_pd(one_minus_beta2);
  const __m256d bias1v = _mm256_set1_pd(bias1);
  const __m256d bias2v = _mm256_set1_pd(bias2);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d mv = _mm256_add_pd(
        _mm256_mul_pd(b1v, _mm256_loadu_pd(m + i)), _mm256_mul_pd(ob1v, gv));
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2v, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(ob2v, gv), gv));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    const __m256d m_hat = _mm256_div_pd(mv, bias1v);
    const __m256d v_hat = _mm256_div_pd(vv, bias2v);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lrv, m_hat),
        _mm256_add_pd(_mm256_sqrt_pd(v_hat), epsv));
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), step));
  }
  for (; i < n; ++i) {
    const Scalar gj = g[i];
    m[i] = beta1 * m[i] + one_minus_beta1 * gj;
    v[i] = beta2 * v[i] + (one_minus_beta2 * gj) * gj;
    const Scalar m_hat = m[i] / bias1;
    const Scalar v_hat = v[i] / bias2;
    x[i] -= (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

const KernelOps kAvx2Ops = {
    RowMaxAvx2,
    ExpRowSumAvx2,
    ExpRowAvx2,
    DivRowAvx2,
    scalar::Dot,       // serial chain in every backend (see kernels.h)
    scalar::DotSum2,   // serial chain in every backend
    DotPanel4Avx2,
    AxpyRowAvx2,
    GemmBlockAvx2,
    AddRowAvx2,
    ScaleRowAvx2,
    MulRowAvx2,
    MulAddRowAvx2,
    ScaleAddRowAvx2,
    ShiftRowAvx2,
    SigmoidRowAvx2,
    SigmoidBwdRowAvx2,
    ReluRowAvx2,
    ReluBwdRowAvx2,
    LeakyReluRowAvx2,
    LeakyReluBwdRowAvx2,
    SoftmaxBwdRowAvx2,
    LogSoftmaxBwdRowAvx2,
    AxpyDivRowAvx2,
    AdamRowAvx2,
};

}  // namespace

const KernelOps* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace tgsim::nn::kernels

#endif  // TGSIM_HAVE_AVX2_KERNELS
