#include "nn/tensor.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "gtest/gtest.h"

// Sanitizer runtimes replace malloc, so the glibc heap policy has no effect.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TGSIM_TEST_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TGSIM_TEST_MALLOC_REPLACED 1
#endif
#endif

namespace tgsim::nn {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(3, 4);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(t.at(r, c), 0.0);
}

TEST(TensorTest, FillConstructor) {
  Tensor t(2, 2, 7.5);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 7.5);
}

TEST(TensorTest, VectorConstructorIsRowMajor) {
  Tensor t(2, 3, std::vector<Scalar>{1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(t.at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 4.0);
}

TEST(TensorTest, CopySemantics) {
  Tensor a(2, 2, 1.0);
  Tensor b = a;
  b.at(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(b.at(0, 0), 9.0);
}

TEST(TensorTest, MoveSemantics) {
  Tensor a(2, 2, 3.0);
  Tensor b = std::move(a);
  EXPECT_EQ(b.rows(), 2);
  EXPECT_DOUBLE_EQ(b.at(1, 1), 3.0);
  EXPECT_EQ(a.rows(), 0);  // NOLINT(bugprone-use-after-move): documented.
}

TEST(TensorTest, CopyAssignReshapes) {
  Tensor a(1, 2, 4.0);
  Tensor b(5, 5);
  b = a;
  EXPECT_EQ(b.rows(), 1);
  EXPECT_EQ(b.cols(), 2);
  EXPECT_DOUBLE_EQ(b.at(0, 1), 4.0);
}

TEST(TensorTest, SelfAssignIsSafe) {
  Tensor a(2, 2, 5.0);
  Tensor& ref = a;
  a = ref;
  EXPECT_DOUBLE_EQ(a.at(0, 0), 5.0);
}

TEST(TensorTest, AllocationsAreTracked) {
  MemoryTracker& g = MemoryTracker::Global();
  int64_t before = g.CurrentBytes();
  {
    Tensor t(100, 100);
    EXPECT_GE(g.CurrentBytes(),
              before + 100 * 100 * static_cast<int64_t>(sizeof(Scalar)));
  }
  EXPECT_EQ(g.CurrentBytes(), before);
}

#if defined(__GLIBC__) && !defined(TGSIM_TEST_MALLOC_REPLACED)
int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}
#endif

TEST(TensorTest, EpochChurnDoesNotRefaultPages) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "the heap policy is set through glibc's mallopt only";
#elif defined(TGSIM_TEST_MALLOC_REPLACED)
  GTEST_SKIP() << "the sanitizer runtime replaces malloc, so mallopt is inert";
#else
  const MemoryTracker::HeapPolicy& policy =
      MemoryTracker::Global().heap_policy();
  ASSERT_EQ(policy.mmap_threshold_rc, 1);
  ASSERT_EQ(policy.trim_threshold_rc, 1);

  // One training "epoch": a dozen ~2 MiB buffers whose row counts jitter
  // from epoch to epoch, as ego-batch shapes do, all freed at its end.
  static constexpr int kBuffers = 12;
  static constexpr int kCols = 256;
  auto run_epoch = [](int epoch) {
    std::vector<Tensor> live;
    live.reserve(kBuffers);
    int64_t bytes = 0;
    for (int i = 0; i < kBuffers; ++i) {
      const int rows = 992 + (epoch * 37 + i * 11) % 64;
      live.emplace_back(rows, kCols);  // Zero-filled: touches every page.
      bytes += live.back().size() * static_cast<int64_t>(sizeof(Scalar));
    }
    return bytes;
  };

  run_epoch(0);  // Warm-up: the heap grows to hold one epoch.
  constexpr int kEpochs = 20;
  const int64_t faults_before = MinorFaults();
  int64_t bytes = 0;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) bytes += run_epoch(epoch);
  const int64_t faults = MinorFaults() - faults_before;

  // With glibc's defaults the freed heap goes back to the kernel every
  // epoch, so every page of every buffer faults in again.
  const int64_t untuned_faults = bytes / sysconf(_SC_PAGESIZE);
  EXPECT_LT(faults, untuned_faults / 50)
      << faults << " minor faults over " << kEpochs << " epochs; the untuned "
      << "heap takes about " << untuned_faults;
#endif
}

TEST(TensorTest, IdentityFactory) {
  Tensor i = Tensor::Identity(3);
  EXPECT_DOUBLE_EQ(i.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i.Sum(), 3.0);
}

TEST(TensorTest, RandnDeterministicWithSeed) {
  Rng a(5), b(5);
  Tensor x = Tensor::Randn(a, 4, 4);
  Tensor y = Tensor::Randn(b, 4, 4);
  EXPECT_DOUBLE_EQ((x - y).MaxAbs(), 0.0);
}

TEST(TensorTest, RandUniformRespectsBounds) {
  Rng rng(6);
  Tensor x = Tensor::RandUniform(rng, 10, 10, -2.0, 3.0);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x.data()[i], -2.0);
    EXPECT_LT(x.data()[i], 3.0);
  }
}

TEST(TensorTest, GlorotUniformScalesWithFans) {
  Rng rng(7);
  Tensor x = Tensor::GlorotUniform(rng, 100, 100);
  double limit = std::sqrt(6.0 / 200.0);
  EXPECT_LE(x.MaxAbs(), limit + 1e-12);
}

TEST(TensorTest, ArithmeticOps) {
  Tensor a(2, 2, std::vector<Scalar>{1, 2, 3, 4});
  Tensor b(2, 2, std::vector<Scalar>{5, 6, 7, 8});
  EXPECT_DOUBLE_EQ((a + b).at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ((b - a).at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.CwiseMul(b).at(1, 0), 21.0);
  EXPECT_DOUBLE_EQ((a * 2.0).at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ((2.0 * a).at(0, 1), 4.0);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a(1, 3, std::vector<Scalar>{1, 2, 3});
  Tensor b(1, 3, std::vector<Scalar>{10, 20, 30});
  a.AddInPlace(b);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 33.0);
  a.Axpy(-1.0, b);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 3.0);
  a.ScaleInPlace(3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
}

TEST(TensorTest, AddRowVectorBroadcasts) {
  Tensor a(2, 3, 1.0);
  Tensor row(1, 3, std::vector<Scalar>{1, 2, 3});
  a.AddRowVectorInPlace(row);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 4.0);
}

TEST(TensorTest, TransposeRoundTrips) {
  Rng rng(8);
  Tensor a = Tensor::Randn(rng, 3, 5);
  Tensor tt = a.Transpose().Transpose();
  EXPECT_DOUBLE_EQ((a - tt).MaxAbs(), 0.0);
}

TEST(TensorTest, MatMulIdentity) {
  Rng rng(9);
  Tensor a = Tensor::Randn(rng, 4, 4);
  Tensor out = a.MatMul(Tensor::Identity(4));
  EXPECT_NEAR((a - out).MaxAbs(), 0.0, 1e-12);
}

TEST(TensorTest, MatMulAssociativity) {
  Rng rng(10);
  Tensor a = Tensor::Randn(rng, 3, 4);
  Tensor b = Tensor::Randn(rng, 4, 5);
  Tensor c = Tensor::Randn(rng, 5, 2);
  Tensor left = a.MatMul(b).MatMul(c);
  Tensor right = a.MatMul(b.MatMul(c));
  EXPECT_NEAR((left - right).MaxAbs(), 0.0, 1e-9);
}

TEST(TensorTest, GatherRowsSelects) {
  Tensor a(3, 2, std::vector<Scalar>{1, 2, 3, 4, 5, 6});
  Tensor g = a.GatherRows({2, 0});
  EXPECT_DOUBLE_EQ(g.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 2.0);
}

TEST(TensorTest, Reductions) {
  Tensor a(2, 2, std::vector<Scalar>{1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(a.Sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.Mean(), -0.5);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(a.Dot(a), 30.0);
  EXPECT_DOUBLE_EQ(a.Norm(), std::sqrt(30.0));
}

TEST(TensorTest, ToStringMentionsShape) {
  Tensor a(2, 2);
  EXPECT_NE(a.ToString().find("2x2"), std::string::npos);
}

}  // namespace
}  // namespace tgsim::nn
