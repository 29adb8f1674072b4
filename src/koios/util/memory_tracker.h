// Memory accounting used to reproduce the paper's memory-footprint plots
// (Table III, Fig. 5d, 6d, 7d). Data structures report their heap usage
// through `MemoryUsageBytes()`; the tracker aggregates per logical category
// so the bench harness can print the same breakdown the paper reports (sum
// of refinement-phase and post-processing-phase structures).
#ifndef KOIOS_UTIL_MEMORY_TRACKER_H_
#define KOIOS_UTIL_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <string>

namespace koios::util {

/// Aggregates named byte counts; snapshot-style (not live instrumentation).
class MemoryTracker {
 public:
  /// Record `bytes` under `category`, accumulating across calls.
  void Add(const std::string& category, size_t bytes);

  /// Record the max of the existing value and `bytes` (for structures whose
  /// peak matters, e.g. the candidate map during refinement).
  void AddPeak(const std::string& category, size_t bytes);

  size_t Get(const std::string& category) const;
  size_t TotalBytes() const;

  /// Category -> bytes, sorted by name.
  const std::map<std::string, size_t>& categories() const { return bytes_; }

  /// Merge another tracker into this one (summing categories); used when
  /// aggregating per-partition footprints.
  void Merge(const MemoryTracker& other);

  void Clear();

  /// Pretty "12.3 MB" rendering.
  static std::string FormatBytes(size_t bytes);

 private:
  std::map<std::string, size_t> bytes_;
};

/// LIVE byte accounting for long-running caches, as opposed to the
/// snapshot-style MemoryTracker above: a lock-free gauge of bytes currently
/// held plus an optional capacity. Writers Add/Sub as payloads are
/// published and dropped; an eviction loop polls OverBy() and frees until
/// it returns 0. All operations are thread-safe; the gauge is exact
/// whenever every byte added is eventually subtracted exactly once (the
/// cursor-cache contract: accounted at publish, de-accounted at evict or
/// clear).
class ByteBudget {
 public:
  /// `capacity` of 0 means unbounded (OverBy() is always 0).
  explicit ByteBudget(size_t capacity = 0) : capacity_(capacity) {}

  void set_capacity(size_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }

  void Add(size_t bytes) { used_.fetch_add(bytes, std::memory_order_relaxed); }
  void Sub(size_t bytes) { used_.fetch_sub(bytes, std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }

  /// Bytes above capacity (0 when within budget or unbounded).
  size_t OverBy() const {
    const size_t cap = capacity();
    if (cap == 0) return 0;
    const size_t u = used();
    return u > cap ? u - cap : 0;
  }

 private:
  std::atomic<size_t> capacity_;
  std::atomic<size_t> used_{0};
};

}  // namespace koios::util

#endif  // KOIOS_UTIL_MEMORY_TRACKER_H_
