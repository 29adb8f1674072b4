// MetricRegistry — the first-class metrics vocabulary of the serving
// stack: named counters, gauges and histograms behind one registry with a
// Prometheus-style text exposition (rendered by the daemon's /metrics
// endpoint and scraped by the smoke/chaos harnesses).
//
// Design:
//  * Registration is idempotent and returns a STABLE pointer — a metric,
//    once created, lives as long as the registry, so hot paths hold the
//    raw Counter*/Gauge* and never touch the registry mutex again. All
//    mutation methods are lock-free atomics.
//  * Pull model for pre-existing instrumentation: subsystems that already
//    keep their own counters (EngineCounters, CursorCacheStats) register a
//    collection CALLBACK instead of double-counting on the hot path;
//    callbacks run at render time and refresh gauges from the
//    authoritative source.
//  * Histograms use fixed geometric bucket bounds chosen at construction
//    (upper-bound inclusive, +Inf implicit), each bucket a relaxed atomic —
//    cheap enough to record every request's latency on the network thread.
//    Histogram is the repository's one latency aggregate: the registry's
//    series, the engine's query and shard latencies and the trace
//    recorder's per-phase times all record into one.
//  * Labeled series register under a full name of the form
//    `base{key="value"}` (build one safely with LabeledMetricName, which
//    escapes the value). The renderer groups every series of a base name
//    under one # HELP/# TYPE block and merges histogram `le` labels into
//    the series' own label set, so `koios_phase_seconds{phase="..."}` and
//    dialect-split request histograms are first-class.
//
// Thread-safety: everything is safe to call concurrently. Collection
// callbacks run OUTSIDE the registry mutex (serialized against each other
// by their own mutex), so a callback may register new labeled series —
// that is how dynamically discovered trace phases appear in /metrics.
#ifndef KOIOS_UTIL_METRIC_REGISTRY_H_
#define KOIOS_UTIL_METRIC_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace koios::util {

/// Monotone counter. Add() with a negative value is a caller bug and is
/// ignored (a counter never goes down).
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// For collection callbacks that MIRROR an authoritative monotone source
  /// (e.g. EngineCounters) instead of counting on the hot path. The source
  /// being monotone is what keeps the exposed counter monotone; do not use
  /// this for values that can go down (that is a Gauge).
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (doubles cover both integral and ratio metrics).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bounds are upper-bound inclusive and strictly
/// increasing; an implicit +Inf bucket catches the rest. Records are
/// lock-free (one relaxed fetch_add per bucket + sum/count), so any thread
/// may Observe while others read. Memory is fixed at construction: 8 bytes
/// per bound plus 8 per bucket, whatever the number of observations.
/// Observations are non-negative (latencies, durations).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i].
  uint64_t CumulativeCount(size_t i) const;

  /// Estimated percentile, `p` in [0, 100]; 0 when empty. Nearest rank over
  /// the bucket counts — the ceil(p/100 · n)-th smallest observation, at
  /// least the first — then linear interpolation inside that observation's
  /// bucket (lo, hi], with lo = 0 for the first bucket. The estimate and the
  /// exact nearest-rank value share the bucket, so on geometric bounds of
  /// ratio r the relative error is below r − 1 (plus up to the first bound,
  /// absolute, in the first bucket). An observation in the +Inf bucket reads
  /// as the last finite bound. p = 100 is the upper edge of the highest
  /// non-empty bucket.
  double Percentile(double p) const;

  /// For collection callbacks that MIRROR an authoritative histogram
  /// source (e.g. the trace recorder's per-phase histograms): replaces the
  /// per-bucket counts (bounds().size() + 1 entries, +Inf last) and the
  /// sum; the count becomes the bucket total. The source being monotone
  /// keeps the exposed histogram monotone. Extra entries are ignored and
  /// missing ones zero their buckets, so SetSnapshot({}, 0.0) empties the
  /// histogram.
  void SetSnapshot(const std::vector<uint64_t>& bucket_counts, double sum);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Every first · ratio^k below `limit` (k = 0, 1, ...): geometric bucket
/// bounds. Requires first > 0 and ratio > 1.
std::vector<double> GeometricBuckets(double first, double ratio, double limit);

/// Default latency bucket bounds (seconds): 100us .. ~100s, x2 steps.
std::vector<double> ExponentialLatencyBuckets();

/// Fine latency bucket bounds (seconds): 1us .. ~190s at ratio 2^(1/8),
/// 221 bounds. Any percentile of latencies from 1us to 190s reads within
/// 9.1% of the exact nearest-rank value; the bucket counts take 1.8 kB.
std::vector<double> FineLatencyBuckets();

/// `base{key="value"}` with Prometheus label-value escaping (backslash,
/// double-quote, newline). Use this to build labeled series names instead
/// of concatenating by hand.
std::string LabeledMetricName(std::string_view base, std::string_view key,
                              std::string_view value);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Idempotent: re-registering an existing name returns the same metric
  /// (the help string of the first registration wins). Registering the
  /// same name as a DIFFERENT metric kind returns nullptr — a programming
  /// error surfaced loudly instead of aliasing storage.
  Counter* RegisterCounter(std::string_view name, std::string_view help);
  Gauge* RegisterGauge(std::string_view name, std::string_view help);
  Histogram* RegisterHistogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds);

  /// Lookup without creating; nullptr when absent or a different kind.
  Counter* FindCounter(std::string_view name) const;
  Gauge* FindGauge(std::string_view name) const;

  /// Registers a callback run at the START of every RenderText — the seam
  /// that migrates pre-existing instrumentation (engine counters, cursor
  /// cache stats, latency percentiles) behind the registry without
  /// double-counting: the callback reads the authoritative source and
  /// refreshes the registered gauges/counters. Callbacks run outside the
  /// registry mutex, so they may register metrics (new labeled series).
  void AddCollectionCallback(std::function<void()> callback);

  /// Prometheus-style text exposition:
  ///   # HELP name help text
  ///   # TYPE name counter|gauge|histogram
  ///   name value
  /// Histograms render name_bucket{le="..."} lines plus _sum/_count.
  /// Series sharing a base name (labeled variants) are grouped under one
  /// HELP/TYPE block at the base's first registration; otherwise metrics
  /// render in registration order (stable scrapes diff cleanly). Help
  /// text is escaped per the Prometheus text format.
  std::string RenderText() const;

 private:
  struct Entry {
    enum Kind { kCounter, kGauge, kHistogram } kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  const Entry* Find(std::string_view name) const;

  mutable std::mutex mutex_;
  // Pointer stability: entries are appended, never removed or reallocated
  // away (unique_ptr payloads), so returned metric pointers live as long
  // as the registry.
  std::vector<std::pair<std::string, Entry>> metrics_;
  // Callbacks live under their own mutex so running them (outside mutex_)
  // can re-enter Register* without deadlocking.
  mutable std::mutex callbacks_mutex_;
  std::vector<std::function<void()>> callbacks_;
};

}  // namespace koios::util

#endif  // KOIOS_UTIL_METRIC_REGISTRY_H_
