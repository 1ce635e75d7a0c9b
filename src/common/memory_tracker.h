#ifndef TGSIM_COMMON_MEMORY_TRACKER_H_
#define TGSIM_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tgsim {

/// Process-wide accounting of tensor allocations.
///
/// The paper's Figure 6 reports peak GPU memory per generator. We reproduce
/// the same quantity on the host: every nn::Tensor registers its buffer here,
/// and benches snapshot the peak between Reset() and PeakBytes(). The counter
/// is atomic so tracked code may run on multiple threads.
///
/// In addition to the process-wide counters, every Allocate/Release is
/// mirrored into thread-local counters. MemoryUsageScope measures against
/// the thread-local view, so concurrent eval cells (eval::RunCells) each
/// observe only their own allocations — keeping per-cell peaks identical to
/// a serial run.
///
/// The first Global() call also sets the process heap policy (glibc only):
/// allocations below 32 MiB come from the heap instead of fresh mmaps, and
/// free heap is kept until 256 MiB of it accumulates at the top. Training
/// frees and reallocates tens of MB of tensor buffers every epoch; with
/// glibc's defaults each epoch unmapped them and the kernel zero-filled them
/// again on first touch. Every Tensor::Allocate goes through Global(), so the
/// policy is in place before the first tensor in any binary that links the
/// library. It changes where bytes live, never their values, and the tracker
/// keeps counting logical tensor bytes.
class MemoryTracker {
 public:
  /// Return values of the two mallopt calls made by the first Global()
  /// (1 = applied). Both stay 0 on non-glibc builds, which keep the C
  /// library's defaults.
  struct HeapPolicy {
    int mmap_threshold_rc = 0;
    int trim_threshold_rc = 0;
  };

  /// Global tracker instance used by nn::Tensor.
  static MemoryTracker& Global();

  /// The heap policy the first Global() call applied.
  const HeapPolicy& heap_policy() const { return heap_policy_; }

  /// Records an allocation of `bytes`.
  void Allocate(size_t bytes);

  /// Records the release of `bytes`.
  void Release(size_t bytes);

  /// Currently live tracked bytes.
  int64_t CurrentBytes() const { return current_.load(); }

  /// Highest watermark since the last Reset().
  int64_t PeakBytes() const { return peak_.load(); }

  /// Resets the peak watermark to the current live byte count.
  void ResetPeak();

  /// Live bytes allocated by the calling thread (net of its releases).
  static int64_t ThreadCurrentBytes();

  /// Calling thread's highest watermark since ResetThreadPeak().
  static int64_t ThreadPeakBytes();

  /// Resets the calling thread's peak watermark to its current live count.
  static void ResetThreadPeak();

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
  HeapPolicy heap_policy_;
};

/// RAII scope measuring the *calling thread's* peak allocation growth over
/// its lifetime. The peak is reported relative to the live bytes at scope
/// entry, so work that stays on one thread (each eval::RunCells cell does)
/// gets the same measurement whether it runs serially on a loaded caller
/// thread or concurrently on a fresh pool worker.
class MemoryUsageScope {
 public:
  MemoryUsageScope() : baseline_(MemoryTracker::ThreadCurrentBytes()) {
    MemoryTracker::ResetThreadPeak();
  }

  /// Peak tracked bytes this thread gained since this scope began.
  int64_t PeakBytes() const {
    return MemoryTracker::ThreadPeakBytes() - baseline_;
  }

  /// Peak in MiB (the unit of the paper's Figure 6).
  double PeakMiB() const {
    return static_cast<double>(PeakBytes()) / (1024.0 * 1024.0);
  }

 private:
  int64_t baseline_;
};

}  // namespace tgsim

#endif  // TGSIM_COMMON_MEMORY_TRACKER_H_
