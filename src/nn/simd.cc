#include "nn/simd.h"

#include <cstdlib>
#include <cstring>

#include "nn/kernels.h"

namespace tgsim::nn::kernels {

namespace {

const KernelOps kScalarOps = {
    scalar::RowMax,
    scalar::ExpRowSum,
    scalar::ExpRow,
    scalar::DivRow,
    scalar::Dot,
    scalar::DotSum2,
    scalar::AxpyRow,
    scalar::GemmBlock,
    scalar::AddRow,
    scalar::ScaleRow,
    scalar::MulRow,
    scalar::MulAddRow,
    scalar::ShiftRow,
    scalar::SigmoidRow,
    scalar::SigmoidBwdRow,
    scalar::ReluRow,
    scalar::ReluBwdRow,
    scalar::LeakyReluRow,
    scalar::LeakyReluBwdRow,
    scalar::SoftmaxBwdRow,
    scalar::LogSoftmaxBwdRow,
    scalar::AxpyDivRow,
    scalar::AdamRow,
};

Backend g_active_backend = Backend::kScalar;

#if defined(TGSIM_HAVE_SIMD_KERNELS)
bool ForcedScalarByEnv() {
  const char* v = std::getenv("TGSIM_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0') return false;
  return std::strcmp(v, "0") != 0;
}
#endif

}  // namespace

namespace detail {

std::atomic<const KernelOps*> g_ops{nullptr};

const KernelOps* ResolveOps() {
  const KernelOps* ops = &kScalarOps;
  Backend backend = Backend::kScalar;
#if defined(TGSIM_HAVE_SIMD_KERNELS)
#if defined(__x86_64__)
  const bool cpu_ok = __builtin_cpu_supports("avx2");
#else
  const bool cpu_ok = true;  // NEON is part of the aarch64 baseline
#endif
  if (cpu_ok && !ForcedScalarByEnv()) {
    ops = GetSimdOps();
    backend = Backend::kSimd;
  }
#endif
  // Benign race: concurrent first calls resolve to the same table.
  g_active_backend = backend;
  g_ops.store(ops, std::memory_order_release);
  return ops;
}

}  // namespace detail

const KernelOps* GetScalarOps() { return &kScalarOps; }

const KernelOps* OpsFor(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalarOps;
    case Backend::kSimd:
#if defined(TGSIM_HAVE_SIMD_KERNELS)
      return GetSimdOps();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Backend ActiveBackend() {
  Ops();  // resolve if needed
  return g_active_backend;
}

bool BackendCompiledIn(Backend b) { return OpsFor(b) != nullptr; }

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSimd:
#if defined(__x86_64__)
      return "avx2";
#else
      return "neon";
#endif
  }
  return "unknown";
}

Backend SetBackendForTest(Backend b) {
  const Backend prev = ActiveBackend();
  const KernelOps* ops = OpsFor(b);
  TGSIM_DCHECK(ops != nullptr);
  g_active_backend = b;
  detail::g_ops.store(ops, std::memory_order_release);
  return prev;
}

}  // namespace tgsim::nn::kernels
