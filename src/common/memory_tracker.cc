#include "common/memory_tracker.h"

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tgsim {

namespace {

/// Per-thread mirror of the tracker counters; plain ints, no atomics
/// needed. Only Allocate/Release on the global tracker update these.
struct ThreadStats {
  int64_t current = 0;
  int64_t peak = 0;
};

ThreadStats& LocalStats() {
  thread_local ThreadStats stats;
  return stats;
}

#if defined(__GLIBC__)
/// M_MMAP_THRESHOLD: the largest value glibc accepts on 64-bit targets.
constexpr int kHeapMmapThresholdBytes = 32 << 20;
/// M_TRIM_THRESHOLD. Setting either threshold turns off glibc's dynamic mmap
/// threshold, which by itself keeps a lone freed buffer but trims an
/// epoch's worth, so both are set.
constexpr int kHeapTrimThresholdBytes = 256 << 20;
#endif

}  // namespace

MemoryTracker& MemoryTracker::Global() {
  static MemoryTracker* tracker = [] {
    auto* created = new MemoryTracker();
#if defined(__GLIBC__)
    created->heap_policy_.mmap_threshold_rc =
        mallopt(M_MMAP_THRESHOLD, kHeapMmapThresholdBytes);
    created->heap_policy_.trim_threshold_rc =
        mallopt(M_TRIM_THRESHOLD, kHeapTrimThresholdBytes);
#endif
    return created;
  }();
  return *tracker;
}

void MemoryTracker::Allocate(size_t bytes) {
  int64_t now = current_.fetch_add(static_cast<int64_t>(bytes)) +
                static_cast<int64_t>(bytes);
  int64_t prev_peak = peak_.load();
  while (now > prev_peak && !peak_.compare_exchange_weak(prev_peak, now)) {
  }
  ThreadStats& local = LocalStats();
  local.current += static_cast<int64_t>(bytes);
  local.peak = std::max(local.peak, local.current);
}

void MemoryTracker::Release(size_t bytes) {
  current_.fetch_sub(static_cast<int64_t>(bytes));
  LocalStats().current -= static_cast<int64_t>(bytes);
}

void MemoryTracker::ResetPeak() { peak_.store(current_.load()); }

int64_t MemoryTracker::ThreadCurrentBytes() { return LocalStats().current; }

int64_t MemoryTracker::ThreadPeakBytes() { return LocalStats().peak; }

void MemoryTracker::ResetThreadPeak() {
  ThreadStats& local = LocalStats();
  local.peak = local.current;
}

}  // namespace tgsim
