// The SIMD kernel table, written once with GCC/Clang vector extensions
// and compiled per target: with -mavx2 on x86-64 (each V is one ymm
// register) and as-is on aarch64 (GCC splits each V into two NEON
// registers). Both compiles add -ffp-contract=off and no -mfma, so every
// multiply and add is a separately rounded IEEE op, the same two-rounding
// sequence the scalar reference performs; -fno-math-errno lets the
// per-lane sqrt become one vector instruction. Each kernel mirrors its
// scalar counterpart lane for lane (see kernels.h for the contract), and
// the per-element kernels run their scalar tails through the very same
// expression as their four-lane bodies.
//
// This file never calls a header-inline kernel (scalar:: or detail::).
// Any it called could be emitted here as a weak definition compiled with
// -mavx2, and the linker may keep that copy for every caller, the scalar
// table and TGSIM_FORCE_SCALAR=1 included. Scalar fallbacks go through
// GetScalarOps(), whose kernels simd.cc compiles at the baseline ISA.
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "nn/kernels.h"
#include "nn/simd.h"

namespace tgsim::nn::kernels {
namespace {

using V = Scalar __attribute__((vector_size(32)));
/// V as it sits at an arbitrary Scalar* (unaligned, aliasing Scalar).
using VMem = Scalar __attribute__((vector_size(32), aligned(8), may_alias));
using I32 = int32_t __attribute__((vector_size(16)));
using I64 = int64_t __attribute__((vector_size(32)));

inline V Splat(Scalar s) { return V{s, s, s, s}; }

template <typename T>
inline T Load(const Scalar* p) {
  if constexpr (std::is_same_v<T, V>)
    return *reinterpret_cast<const VMem*>(p);
  else
    return *p;
}
inline void Store(Scalar* p, V v) { *reinterpret_cast<VMem*>(p) = v; }
inline void Store(Scalar* p, Scalar s) { *p = s; }

// Lane-wise max(a, b) = a > b ? a : b and min(a, b) = a < b ? a : b. The
// ?: form is exact everywhere, but GCC lowers it to compare + blend; on
// AVX2 the builtins behind _mm256_max_pd / _mm256_min_pd are one op each.
#if defined(__AVX2__)
inline V Max(V a, V b) { return __builtin_ia32_maxpd256(a, b); }
inline V Min(V a, V b) { return __builtin_ia32_minpd256(a, b); }
#else
inline V Max(V a, V b) { return a > b ? a : b; }
inline V Min(V a, V b) { return a < b ? a : b; }
#endif

/// Lane-wise detail::ExpD: the same operation sequence, the clamps in the
/// same operand order. k is integral after the magic-shift round, so the
/// int32 conversion is exact; the exponent split k1 = k >> 1, k2 = k - k1
/// is done in 32-bit and widened, which matches the scalar int64
/// arithmetic on this bounded range.
inline V Exp(V x) {
  V xs = Max(Splat(detail::kExpLo), x);
  xs = Min(Splat(detail::kExpHi), xs);
  const V t = xs * detail::kExpLog2e + detail::kExpShift;
  const V k = t - detail::kExpShift;
  V r = xs - k * detail::kExpLn2Hi;
  r = r - k * detail::kExpLn2Lo;
  V p = Splat(detail::kExpCoeff[13]);
  for (int j = 12; j >= 0; --j) p = p * r + detail::kExpCoeff[j];
  const I32 ki = __builtin_convertvector(k, I32);
  const I32 k1 = ki >> 1;
  const I32 k2 = ki - k1;
  const I64 e1 = __builtin_convertvector(k1 + 1023, I64) << 52;
  const I64 e2 = __builtin_convertvector(k2 + 1023, I64) << 52;
  return (p * std::bit_cast<V>(e1)) * std::bit_cast<V>(e2);
}
/// Scalar tails take lane 0 of the vector path, which equals
/// detail::ExpD bit for bit (calling ExpD would emit it here; see top).
inline Scalar Exp(Scalar x) { return Exp(Splat(x))[0]; }

inline V Sqrt(V x) {
  return V{std::sqrt(x[0]), std::sqrt(x[1]), std::sqrt(x[2]), std::sqrt(x[3])};
}
inline Scalar Sqrt(Scalar x) { return std::sqrt(x); }

/// Calls f(i, V{}) for each four-lane block of [0, n), then f(i, Scalar{})
/// for each leftover index: f is one generic expression, so the tail
/// computes exactly what a lane of the body does.
template <typename F>
inline void ForLanes(int n, F f) {
  int i = 0;
  for (; i + 3 < n; i += 4) f(i, V{});
  for (; i < n; ++i) f(i, Scalar{});
}

/// dst[i] = f(src[i]...). Every source is read before dst is written, so
/// dst may be one of the sources.
template <typename F, typename... Src>
inline void Map(Scalar* dst, int n, F f, const Src*... src) {
  ForLanes(n, [&](int i, auto lanes) {
    using T = decltype(lanes);
    Store(dst + i, f(Load<T>(src + i)...));
  });
}

Scalar RowMaxSimd(const Scalar* x, int n) {
  // Max over a set is a unique value (up to zero sign, normalized by the
  // trailing +0.0), so unlike sums it may be reduced in any shape: four
  // independent accumulator chains break the max latency chain that
  // would otherwise cap throughput at one vector per max latency.
  if (n < 8) return GetScalarOps()->row_max(x, n);
  V a0 = Load<V>(x);
  V a1 = a0, a2 = a0, a3 = a0;
  int i = 4;
  for (; i + 15 < n; i += 16) {
    a0 = Max(Load<V>(x + i), a0);
    a1 = Max(Load<V>(x + i + 4), a1);
    a2 = Max(Load<V>(x + i + 8), a2);
    a3 = Max(Load<V>(x + i + 12), a3);
  }
  for (; i + 3 < n; i += 4) a0 = Max(Load<V>(x + i), a0);
  const V acc = Max(Max(a0, a1), Max(a2, a3));
  Scalar m0 = acc[0], m2 = acc[2];
  for (; i < n; ++i) m0 = x[i] > m0 ? x[i] : m0;
  m0 = acc[1] > m0 ? acc[1] : m0;
  m2 = acc[3] > m2 ? acc[3] : m2;
  return (m2 > m0 ? m2 : m0) + 0.0;
}

Scalar ExpRowSumSimd(const Scalar* x, Scalar m, Scalar* dst, int n) {
  V acc = {};  // lane l is the reference's accumulator a_l
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const V e = Exp(Load<V>(x + i) - m);
    Store(dst + i, e);
    acc += e;
  }
  Scalar z = ((acc[0] + acc[1]) + acc[2]) + acc[3];
  for (; i < n; ++i) {
    dst[i] = Exp(x[i] - m);
    z += dst[i];
  }
  return z;
}

void ExpRowSimd(const Scalar* x, Scalar m, Scalar* dst, int n) {
  Map(dst, n, [m](auto v) { return Exp(v - m); }, x);
}

void DivRowSimd(Scalar* x, Scalar z, int n) {
  Map(x, n, [z](auto v) { return v / z; }, x);
}

void AxpyRowSimd(Scalar a, const Scalar* b, Scalar* o, int n) {
  Map(o, n, [a](auto ov, auto bv) { return ov + a * bv; }, o, b);
}

/// MR rows x NV four-wide column vectors of GEMM outputs, accumulators
/// held in registers across the whole kk loop. Lane j of acc[ii][v] is
/// exactly scalar::GemmTile's chain for output (ii, 4v + j): +0.0, then
/// one separately rounded multiply and add per kk, ascending.
template <int MR, int NV>
inline void GemmTileSimd(int k, const Scalar* a, int64_t a_rs, int64_t a_cs,
                         const Scalar* b, int64_t ldb, Scalar* c, int64_t ldc,
                         bool accumulate) {
  V acc[MR][NV] = {};
  for (int kk = 0; kk < k; ++kk) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = Load<V>(b + kk * ldb + 4 * v);
    for (int ii = 0; ii < MR; ++ii) {
      const Scalar aik = a[ii * a_rs + kk * a_cs];
      for (int v = 0; v < NV; ++v) acc[ii][v] = acc[ii][v] + aik * bv[v];
    }
  }
  for (int ii = 0; ii < MR; ++ii)
    for (int v = 0; v < NV; ++v) {
      Scalar* cv = c + ii * ldc + 4 * v;
      Store(cv, accumulate ? Load<V>(cv) + acc[ii][v] : acc[ii][v]);
    }
}

/// Four-row blocks take 4x8 tiles (eight accumulators: enough independent
/// add chains to cover the add latency); leftover rows, and so every
/// 1-row product, take 1x32 tiles for the same reason. Narrower column
/// runs fall back to 4-wide vectors, and the last 1-3 columns to the
/// scalar reference: every output is its own chain, so which kernel
/// computes it never changes a bit.
void GemmBlockSimd(int m, int n, int k, const Scalar* a, int64_t a_rs,
                   int64_t a_cs, const Scalar* b, int64_t ldb, Scalar* c,
                   int64_t ldc, bool accumulate) {
  const int n4 = n & ~3;
  int i = 0;
  for (; i + 3 < m; i += 4) {
    const Scalar* ai = a + i * a_rs;
    Scalar* ci = c + i * ldc;
    int j = 0;
    for (; j + 7 < n4; j += 8)
      GemmTileSimd<4, 2>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    for (; j < n4; j += 4)
      GemmTileSimd<4, 1>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
  }
  for (; i < m; ++i) {
    const Scalar* ai = a + i * a_rs;
    Scalar* ci = c + i * ldc;
    int j = 0;
    for (; j + 31 < n4; j += 32)
      GemmTileSimd<1, 8>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    for (; j + 7 < n4; j += 8)
      GemmTileSimd<1, 2>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
    for (; j < n4; j += 4)
      GemmTileSimd<1, 1>(k, ai, a_rs, a_cs, b + j, ldb, ci + j, ldc,
                         accumulate);
  }
  if (n4 < n)
    GetScalarOps()->gemm_block(m, n - n4, k, a, a_rs, a_cs, b + n4, ldb,
                               c + n4, ldc, accumulate);
}

void AddRowSimd(Scalar* dst, const Scalar* x, int n) {
  Map(dst, n, [](auto d, auto v) { return d + v; }, dst, x);
}

void ScaleRowSimd(Scalar* x, Scalar s, int n) {
  Map(x, n, [s](auto v) { return v * s; }, x);
}

void MulRowSimd(Scalar* dst, const Scalar* x, int n) {
  Map(dst, n, [](auto d, auto v) { return d * v; }, dst, x);
}

void MulAddRowSimd(Scalar* dst, const Scalar* a, const Scalar* b, int n) {
  Map(dst, n, [](auto d, auto av, auto bv) { return d + av * bv; }, dst, a,
      b);
}

void ShiftRowSimd(const Scalar* x, Scalar s, Scalar* dst, int n) {
  Map(dst, n, [s](auto v) { return v - s; }, x);
}

void SigmoidRowSimd(const Scalar* x, Scalar* dst, int n) {
  Map(dst, n, [](auto v) { return 1.0 / (1.0 + Exp(-v)); }, x);
}

void SigmoidBwdRowSimd(const Scalar* go, const Scalar* y, Scalar* gi,
                       int n) {
  Map(gi, n,
      [](auto g, auto o, auto yv) { return g + o * (yv * (1.0 - yv)); }, gi,
      go, y);
}

void ReluRowSimd(const Scalar* x, Scalar* dst, int n) {
  Map(dst, n, [](auto v) { return v > 0.0 ? v : 0.0; }, x);
}

// The backward kernels multiply by a selected 1.0 / 0.0 (or slope) rather
// than masking: go * 0.0 keeps go's sign on the zero, like the reference.
void ReluBwdRowSimd(const Scalar* go, const Scalar* x, Scalar* gi, int n) {
  Map(gi, n,
      [](auto g, auto o, auto v) { return g + o * (v > 0.0 ? 1.0 : 0.0); },
      gi, go, x);
}

void LeakyReluRowSimd(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  Map(dst, n, [slope](auto v) { return v > 0.0 ? v : slope * v; }, x);
}

void LeakyReluBwdRowSimd(const Scalar* go, const Scalar* x, Scalar slope,
                         Scalar* gi, int n) {
  Map(gi, n,
      [slope](auto g, auto o, auto v) {
        return g + o * (v > 0.0 ? 1.0 : slope);
      },
      gi, go, x);
}

void SoftmaxBwdRowSimd(const Scalar* go, const Scalar* y, Scalar dot,
                       Scalar* gi, int n) {
  Map(gi, n, [dot](auto g, auto o, auto yv) { return g + yv * (o - dot); },
      gi, go, y);
}

void LogSoftmaxBwdRowSimd(const Scalar* go, const Scalar* p, Scalar gsum,
                          Scalar* gi, int n) {
  Map(gi, n, [gsum](auto g, auto o, auto pv) { return g + (o - pv * gsum); },
      gi, go, p);
}

void AxpyDivRowSimd(Scalar a, const Scalar* e, Scalar z, Scalar* gi, int n) {
  Map(gi, n, [a, z](auto g, auto ev) { return g + (a * ev) / z; }, gi, e);
}

void AdamRowSimd(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                 Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                 Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                 Scalar lr, Scalar eps, int n) {
  ForLanes(n, [&](int i, auto lanes) {
    using T = decltype(lanes);
    const T gj = Load<T>(g + i);
    const T mj = beta1 * Load<T>(m + i) + one_minus_beta1 * gj;
    const T vj = beta2 * Load<T>(v + i) + (one_minus_beta2 * gj) * gj;
    Store(m + i, mj);
    Store(v + i, vj);
    const T step = (lr * (mj / bias1)) / (Sqrt(vj / bias2) + eps);
    Store(x + i, Load<T>(x + i) - step);
  });
}

// Dot and DotSum2 are the serial chain in every backend (see kernels.h),
// so this table reuses the scalar table's entries.
Scalar DotScalar(const Scalar* a, const Scalar* b, int n) {
  return GetScalarOps()->dot(a, b, n);
}

Scalar DotSum2Scalar(const Scalar* a, const Scalar* b1, const Scalar* b2,
                     int n) {
  return GetScalarOps()->dot_sum2(a, b1, b2, n);
}

const KernelOps kSimdOps = {
    RowMaxSimd,
    ExpRowSumSimd,
    ExpRowSimd,
    DivRowSimd,
    DotScalar,
    DotSum2Scalar,
    AxpyRowSimd,
    GemmBlockSimd,
    AddRowSimd,
    ScaleRowSimd,
    MulRowSimd,
    MulAddRowSimd,
    ShiftRowSimd,
    SigmoidRowSimd,
    SigmoidBwdRowSimd,
    ReluRowSimd,
    ReluBwdRowSimd,
    LeakyReluRowSimd,
    LeakyReluBwdRowSimd,
    SoftmaxBwdRowSimd,
    LogSoftmaxBwdRowSimd,
    AxpyDivRowSimd,
    AdamRowSimd,
};

}  // namespace

const KernelOps* GetSimdOps() { return &kSimdOps; }

}  // namespace tgsim::nn::kernels
