// NEON kernel table (aarch64). Compiled only with
// TGSIM_HAVE_NEON_KERNELS. float64x2_t has two lanes, so the fixed
// 4-accumulator shapes (RowMax, ExpRowSum, DotPanel4) use a PAIR of
// vectors — lanes (a0,a1) and (a2,a3) — to reproduce the scalar
// reference's shape exactly. No vfmaq anywhere: every multiply and add is
// a separately rounded op, and the build sets -ffp-contract=off globally
// so the compiler cannot fuse them either.
#if defined(TGSIM_HAVE_NEON_KERNELS)

#include <arm_neon.h>

#include "nn/kernels.h"
#include "nn/simd.h"

namespace tgsim::nn::kernels {
namespace {

/// Two-lane ExpD: identical operation sequence to detail::ExpD.
/// vmaxq/vminq implement IEEE maxNum/minNum; the operands only compare
/// equal at the (nonzero) clamp bounds, so they match the scalar clamp
/// ternaries bit for bit. vcvtnq_s64_f64 rounds to nearest — exact, k is
/// integral — and vshrq_n_s64 is the arithmetic shift the scalar int64
/// math uses.
inline float64x2_t ExpV(float64x2_t x) {
  const float64x2_t lo = vdupq_n_f64(detail::kExpLo);
  const float64x2_t hi = vdupq_n_f64(detail::kExpHi);
  float64x2_t xs = vmaxq_f64(lo, x);
  xs = vminq_f64(hi, xs);
  const float64x2_t shift = vdupq_n_f64(detail::kExpShift);
  const float64x2_t t =
      vaddq_f64(vmulq_f64(xs, vdupq_n_f64(detail::kExpLog2e)), shift);
  const float64x2_t k = vsubq_f64(t, shift);
  float64x2_t r =
      vsubq_f64(xs, vmulq_f64(k, vdupq_n_f64(detail::kExpLn2Hi)));
  r = vsubq_f64(r, vmulq_f64(k, vdupq_n_f64(detail::kExpLn2Lo)));
  float64x2_t p = vdupq_n_f64(detail::kExpCoeff[13]);
  for (int j = 12; j >= 0; --j)
    p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(detail::kExpCoeff[j]));
  const int64x2_t ki = vcvtnq_s64_f64(k);
  const int64x2_t k1 = vshrq_n_s64(ki, 1);
  const int64x2_t k2 = vsubq_s64(ki, k1);
  const int64x2_t bias = vdupq_n_s64(1023);
  const float64x2_t s1 =
      vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(k1, bias), 52));
  const float64x2_t s2 =
      vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(k2, bias), 52));
  return vmulq_f64(vmulq_f64(p, s1), s2);
}

Scalar RowMaxNeon(const Scalar* x, int n) {
  if (n < 8) return scalar::RowMax(x, n);
  float64x2_t m01 = vld1q_f64(x);      // lanes m0, m1
  float64x2_t m23 = vld1q_f64(x + 2);  // lanes m2, m3
  int i = 4;
  for (; i + 3 < n; i += 4) {
    m01 = vmaxq_f64(vld1q_f64(x + i), m01);
    m23 = vmaxq_f64(vld1q_f64(x + i + 2), m23);
  }
  Scalar m[4] = {vgetq_lane_f64(m01, 0), vgetq_lane_f64(m01, 1),
                 vgetq_lane_f64(m23, 0), vgetq_lane_f64(m23, 1)};
  for (; i < n; ++i) m[0] = x[i] > m[0] ? x[i] : m[0];
  m[0] = m[1] > m[0] ? m[1] : m[0];
  m[2] = m[3] > m[2] ? m[3] : m[2];
  return (m[2] > m[0] ? m[2] : m[0]) + 0.0;
}

Scalar ExpRowSumNeon(const Scalar* x, Scalar m, Scalar* dst, int n) {
  const float64x2_t mv = vdupq_n_f64(m);
  float64x2_t a01 = vdupq_n_f64(0.0);
  float64x2_t a23 = vdupq_n_f64(0.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const float64x2_t e01 = ExpV(vsubq_f64(vld1q_f64(x + i), mv));
    const float64x2_t e23 = ExpV(vsubq_f64(vld1q_f64(x + i + 2), mv));
    vst1q_f64(dst + i, e01);
    vst1q_f64(dst + i + 2, e23);
    a01 = vaddq_f64(a01, e01);
    a23 = vaddq_f64(a23, e23);
  }
  Scalar z = ((vgetq_lane_f64(a01, 0) + vgetq_lane_f64(a01, 1)) +
              vgetq_lane_f64(a23, 0)) +
             vgetq_lane_f64(a23, 1);
  for (; i < n; ++i) {
    dst[i] = detail::ExpD(x[i] - m);
    z += dst[i];
  }
  return z;
}

void ExpRowNeon(const Scalar* x, Scalar m, Scalar* dst, int n) {
  const float64x2_t mv = vdupq_n_f64(m);
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dst + i, ExpV(vsubq_f64(vld1q_f64(x + i), mv)));
  for (; i < n; ++i) dst[i] = detail::ExpD(x[i] - m);
}

void DivRowNeon(Scalar* x, Scalar z, int n) {
  const float64x2_t zv = vdupq_n_f64(z);
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(x + i, vdivq_f64(vld1q_f64(x + i), zv));
  for (; i < n; ++i) x[i] /= z;
}

void DotPanel4Neon(const Scalar* h, const Scalar* panel, int d,
                   Scalar* out4) {
  float64x2_t s01 = vdupq_n_f64(0.0);
  float64x2_t s23 = vdupq_n_f64(0.0);
  for (int k = 0; k < d; ++k) {
    const float64x2_t hk = vdupq_n_f64(h[k]);
    s01 = vaddq_f64(s01, vmulq_f64(hk, vld1q_f64(panel + 4 * k)));
    s23 = vaddq_f64(s23, vmulq_f64(hk, vld1q_f64(panel + 4 * k + 2)));
  }
  vst1q_f64(out4, s01);
  vst1q_f64(out4 + 2, s23);
}

void AxpyRowNeon(Scalar a, const Scalar* b, Scalar* o, int n) {
  const float64x2_t av = vdupq_n_f64(a);
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(o + i, vaddq_f64(vld1q_f64(o + i),
                               vmulq_f64(av, vld1q_f64(b + i))));
  for (; i < n; ++i) o[i] += a * b[i];
}

void AddRowNeon(Scalar* dst, const Scalar* x, int n) {
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(x + i)));
  for (; i < n; ++i) dst[i] += x[i];
}

void ScaleRowNeon(Scalar* x, Scalar s, int n) {
  const float64x2_t sv = vdupq_n_f64(s);
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), sv));
  for (; i < n; ++i) x[i] *= s;
}

void MulRowNeon(Scalar* dst, const Scalar* x, int n) {
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dst + i, vmulq_f64(vld1q_f64(dst + i), vld1q_f64(x + i)));
  for (; i < n; ++i) dst[i] *= x[i];
}

void MulAddRowNeon(Scalar* dst, const Scalar* a, const Scalar* b, int n) {
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dst + i,
              vaddq_f64(vld1q_f64(dst + i),
                        vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i))));
  for (; i < n; ++i) dst[i] = dst[i] + a[i] * b[i];
}

void ScaleAddRowNeon(Scalar* dst, Scalar s, const Scalar* x, Scalar a,
                     int n) {
  const float64x2_t sv = vdupq_n_f64(s);
  const float64x2_t av = vdupq_n_f64(a);
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dst + i, vaddq_f64(vmulq_f64(sv, vld1q_f64(dst + i)),
                                 vmulq_f64(av, vld1q_f64(x + i))));
  for (; i < n; ++i) dst[i] = s * dst[i] + a * x[i];
}

void ShiftRowNeon(const Scalar* x, Scalar s, Scalar* dst, int n) {
  const float64x2_t sv = vdupq_n_f64(s);
  int i = 0;
  for (; i + 1 < n; i += 2)
    vst1q_f64(dst + i, vsubq_f64(vld1q_f64(x + i), sv));
  for (; i < n; ++i) dst[i] = x[i] - s;
}

void SigmoidRowNeon(const Scalar* x, Scalar* dst, int n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t e = ExpV(vnegq_f64(vld1q_f64(x + i)));
    vst1q_f64(dst + i, vdivq_f64(one, vaddq_f64(one, e)));
  }
  for (; i < n; ++i) dst[i] = 1.0 / (1.0 + detail::ExpD(-x[i]));
}

void SigmoidBwdRowNeon(const Scalar* go, const Scalar* y, Scalar* gi,
                       int n) {
  const float64x2_t one = vdupq_n_f64(1.0);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t yv = vld1q_f64(y + i);
    const float64x2_t dydx = vmulq_f64(yv, vsubq_f64(one, yv));
    vst1q_f64(gi + i, vaddq_f64(vld1q_f64(gi + i),
                                vmulq_f64(vld1q_f64(go + i), dydx)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (y[i] * (1.0 - y[i]));
}

void ReluRowNeon(const Scalar* x, Scalar* dst, int n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    const uint64x2_t mask = vcgtq_f64(xv, zero);
    vst1q_f64(dst + i, vbslq_f64(mask, xv, zero));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluBwdRowNeon(const Scalar* go, const Scalar* x, Scalar* gi, int n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t one = vdupq_n_f64(1.0);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const uint64x2_t mask = vcgtq_f64(vld1q_f64(x + i), zero);
    const float64x2_t d = vbslq_f64(mask, one, zero);
    vst1q_f64(gi + i, vaddq_f64(vld1q_f64(gi + i),
                                vmulq_f64(vld1q_f64(go + i), d)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

void LeakyReluRowNeon(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t sv = vdupq_n_f64(slope);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    const uint64x2_t mask = vcgtq_f64(xv, zero);
    vst1q_f64(dst + i, vbslq_f64(mask, xv, vmulq_f64(sv, xv)));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

void LeakyReluBwdRowNeon(const Scalar* go, const Scalar* x, Scalar slope,
                         Scalar* gi, int n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t sv = vdupq_n_f64(slope);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const uint64x2_t mask = vcgtq_f64(vld1q_f64(x + i), zero);
    const float64x2_t d = vbslq_f64(mask, one, sv);
    vst1q_f64(gi + i, vaddq_f64(vld1q_f64(gi + i),
                                vmulq_f64(vld1q_f64(go + i), d)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : slope);
}

void SoftmaxBwdRowNeon(const Scalar* go, const Scalar* y, Scalar dot,
                       Scalar* gi, int n) {
  const float64x2_t dv = vdupq_n_f64(dot);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t t = vmulq_f64(vld1q_f64(y + i),
                                    vsubq_f64(vld1q_f64(go + i), dv));
    vst1q_f64(gi + i, vaddq_f64(vld1q_f64(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += y[i] * (go[i] - dot);
}

void LogSoftmaxBwdRowNeon(const Scalar* go, const Scalar* p, Scalar gsum,
                          Scalar* gi, int n) {
  const float64x2_t gv = vdupq_n_f64(gsum);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t t = vsubq_f64(vld1q_f64(go + i),
                                    vmulq_f64(vld1q_f64(p + i), gv));
    vst1q_f64(gi + i, vaddq_f64(vld1q_f64(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += go[i] - p[i] * gsum;
}

void AxpyDivRowNeon(Scalar a, const Scalar* e, Scalar z, Scalar* gi, int n) {
  const float64x2_t av = vdupq_n_f64(a);
  const float64x2_t zv = vdupq_n_f64(z);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t t =
        vdivq_f64(vmulq_f64(av, vld1q_f64(e + i)), zv);
    vst1q_f64(gi + i, vaddq_f64(vld1q_f64(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += (a * e[i]) / z;
}

void AdamRowNeon(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                 Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                 Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                 Scalar lr, Scalar eps, int n) {
  const float64x2_t b1v = vdupq_n_f64(beta1);
  const float64x2_t ob1v = vdupq_n_f64(one_minus_beta1);
  const float64x2_t b2v = vdupq_n_f64(beta2);
  const float64x2_t ob2v = vdupq_n_f64(one_minus_beta2);
  const float64x2_t bias1v = vdupq_n_f64(bias1);
  const float64x2_t bias2v = vdupq_n_f64(bias2);
  const float64x2_t lrv = vdupq_n_f64(lr);
  const float64x2_t epsv = vdupq_n_f64(eps);
  int i = 0;
  for (; i + 1 < n; i += 2) {
    const float64x2_t gv = vld1q_f64(g + i);
    const float64x2_t mv = vaddq_f64(vmulq_f64(b1v, vld1q_f64(m + i)),
                                     vmulq_f64(ob1v, gv));
    const float64x2_t vv =
        vaddq_f64(vmulq_f64(b2v, vld1q_f64(v + i)),
                  vmulq_f64(vmulq_f64(ob2v, gv), gv));
    vst1q_f64(m + i, mv);
    vst1q_f64(v + i, vv);
    const float64x2_t m_hat = vdivq_f64(mv, bias1v);
    const float64x2_t v_hat = vdivq_f64(vv, bias2v);
    const float64x2_t step = vdivq_f64(
        vmulq_f64(lrv, m_hat), vaddq_f64(vsqrtq_f64(v_hat), epsv));
    vst1q_f64(x + i, vsubq_f64(vld1q_f64(x + i), step));
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

const KernelOps kNeonOps = {
    RowMaxNeon,
    ExpRowSumNeon,
    ExpRowNeon,
    DivRowNeon,
    scalar::Dot,       // serial chain in every backend (see kernels.h)
    scalar::DotSum2,   // serial chain in every backend
    DotPanel4Neon,
    AxpyRowNeon,
    scalar::GemmBlock,  // no NEON microkernel yet: scalar reference
    AddRowNeon,
    ScaleRowNeon,
    MulRowNeon,
    MulAddRowNeon,
    ScaleAddRowNeon,
    ShiftRowNeon,
    SigmoidRowNeon,
    SigmoidBwdRowNeon,
    ReluRowNeon,
    ReluBwdRowNeon,
    LeakyReluRowNeon,
    LeakyReluBwdRowNeon,
    SoftmaxBwdRowNeon,
    LogSoftmaxBwdRowNeon,
    AxpyDivRowNeon,
    AdamRowNeon,
};

}  // namespace

const KernelOps* GetNeonOps() { return &kNeonOps; }

}  // namespace tgsim::nn::kernels

#endif  // TGSIM_HAVE_NEON_KERNELS
