// TraceRecorder — sampled, low-overhead span tracing for the request path.
//
// The serving stack's metrics say THAT a query was slow; the tracer says
// WHERE. Every sampled query carries a trace id through net -> serve ->
// search, and each instrumented scope records one span {trace, span,
// parent, name, t0, t1, arg} into a per-thread lock-free ring buffer.
// Three consumers read the rings:
//   * /debug/tracez renders them as Chrome trace-event JSON (loadable in
//     Perfetto / chrome://tracing),
//   * the engine's slow-query log dumps one trace's span tree as text,
//   * per-phase util::Histograms (one per distinct span name) feed
//     koios_phase_seconds{phase="..."} in the metric registry.
//
// Cost contract (the reason this file exists at all):
//   * DISABLED (the default): KOIOS_TRACE_SPAN is one relaxed atomic load
//     and a predictable branch — the same bar KOIOS_FAULTPOINT holds.
//   * Enabled but NOT sampled: the same load, plus one thread-local read.
//   * Sampled: two steady_clock reads and ~8 relaxed atomic stores per
//     span, no locks, no allocation (rings are pre-sized; names must be
//     string literals).
//
// Concurrency: each ring is written only by its owning thread; slots are
// seqlocks (odd sequence = mid-write) over all-atomic fields, so snapshot
// readers on other threads are TSan-clean and never block a writer. The
// thread registry mutex is touched once per thread (first span) and by
// readers; never on the per-span path.
#ifndef KOIOS_UTIL_TRACE_RECORDER_H_
#define KOIOS_UTIL_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace koios::util {

/// One completed span, as copied out of a ring by a snapshot reader.
struct TraceSpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  const char* name = nullptr;  // string literal, never owned
  int64_t t0_ns = 0;  // steady-clock ns since recorder epoch
  int64_t t1_ns = 0;
  const char* arg_name = nullptr;  // optional integer annotation
  uint64_t arg_value = 0;
  uint32_t thread_index = 0;  // registration order of the recording thread

  double DurationSeconds() const {
    return static_cast<double>(t1_ns - t0_ns) * 1e-9;
  }
};

class TraceRecorder {
 public:
  struct Options {
    /// 1-in-N query sampling; 0 disables the recorder entirely.
    uint32_t sample_every = 0;
    /// Spans retained per thread (rounded up to a power of two). Bounds
    /// the "last N sampled queries" window tracez can show.
    size_t ring_spans = 4096;
  };

  static TraceRecorder& Instance();

  /// The global fast gate: one relaxed load + branch. Every disabled-path
  /// caller (TraceSpan ctor, StartTrace) checks this first.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed) != 0;
  }

  /// Enables (sample_every > 0) or disables tracing. Ring capacity applies
  /// to threads that record their first span after the call.
  void Configure(const Options& options);
  void Disable();
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Sampling decision at query arrival: every sample_every-th arrival
  /// gets a fresh nonzero trace id, the rest (and all arrivals while
  /// disabled) get 0. Deterministic: the 1st, N+1th, 2N+1th ... arrivals
  /// after Configure are the sampled ones.
  uint64_t StartTrace();

  /// A trace id unconditionally (0 only when disabled) — for benches, the
  /// watcher's swap builds, and tests that must not depend on sampling.
  uint64_t StartTraceForced();

  uint64_t NewSpanId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Steady-clock ns since the recorder's construction (the epoch all
  /// span timestamps share).
  int64_t NowNs() const;

  /// The calling thread's ambient trace (set by TraceAdopt / TraceSpan).
  struct ThreadContext {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
  };
  static ThreadContext Current();

  /// Records a span with caller-supplied ids and timestamps — for spans
  /// whose window is known only after the fact (queue wait measured at
  /// worker pickup, the request root closed at emit). `name`/`arg_name`
  /// must be string literals. No-op while disabled or when trace_id == 0.
  void RecordManualSpan(const char* name, uint64_t trace_id, uint64_t span_id,
                        uint64_t parent_id, int64_t t0_ns, int64_t t1_ns,
                        const char* arg_name = nullptr, uint64_t arg_value = 0);

  /// Copies every valid slot out of every thread ring (newest ring_spans
  /// per thread survive; older spans are overwritten in place).
  std::vector<TraceSpanRecord> Snapshot() const;
  std::vector<TraceSpanRecord> SnapshotTrace(uint64_t trace_id) const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}): one "X" (complete)
  /// event per span with ts/dur in microseconds, pid = trace id (one
  /// Perfetto process track per sampled query), tid = recording thread,
  /// plus process_name metadata rows. Loadable as-is in Perfetto and
  /// chrome://tracing.
  std::string RenderChromeTraceJson() const;

  /// Indented text tree of one trace's spans (the slow-query log format).
  std::string RenderSpanTree(uint64_t trace_id) const;

  // ---- per-phase histograms (seconds) ----
  // Every recorded span also lands in a util::Histogram keyed by span
  // name. The metrics layer mirrors these into
  // koios_phase_seconds{phase="<name>"}.
  struct PhaseSnapshot {
    const char* name = nullptr;
    std::vector<uint64_t> buckets;  // PhaseBucketBounds().size() + 1 (+Inf)
    uint64_t count = 0;
    double sum = 0.0;
  };
  /// 1us .. ~268s, x4 steps (phases span frame-parse ns to 1M-set EM).
  static const std::vector<double>& PhaseBucketBounds();
  std::vector<PhaseSnapshot> PhaseHistograms() const;

  /// Test hook: zeroes rings, phase histograms, the arrival counter and
  /// the id counter. Callers must quiesce writer threads first.
  void ResetForTest();

 private:
  friend class TraceSpan;
  friend class TraceAdopt;

  struct Slot;
  struct ThreadRing;
  struct PhaseHist;
  struct TlsState;

  TraceRecorder();
  ~TraceRecorder() = delete;  // lives for the process (tls-safe)

  static TlsState& Tls();
  ThreadRing* LocalRing();
  void Push(const TraceSpanRecord& record);
  void RecordPhase(const char* name, double seconds);
  void SnapshotInto(std::vector<TraceSpanRecord>* out, uint64_t trace_filter,
                    bool filter) const;

  static std::atomic<uint32_t> enabled_;
  std::atomic<uint32_t> sample_every_{0};
  std::atomic<uint64_t> arrivals_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> ring_spans_{4096};
  int64_t epoch_ns_ = 0;

  mutable std::mutex rings_mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  uint32_t next_thread_index_ = 0;

  static constexpr size_t kMaxPhases = 64;
  mutable std::mutex phases_mutex_;
  std::atomic<size_t> num_phases_{0};
  std::unique_ptr<PhaseHist[]> phases_;
};

/// RAII adoption of a trace onto the current thread — the cross-thread
/// hop (net loop -> engine worker -> partition task). Restores the
/// previous ambient context on destruction. No-op when trace_id == 0.
class TraceAdopt {
 public:
  TraceAdopt(uint64_t trace_id, uint64_t parent_span);
  ~TraceAdopt();

  TraceAdopt(const TraceAdopt&) = delete;
  TraceAdopt& operator=(const TraceAdopt&) = delete;

 private:
  uint64_t saved_trace_ = 0;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

/// RAII span. Construction is the fast gate (relaxed load + branch while
/// disabled; one extra thread-local read while enabled but unsampled);
/// destruction timestamps and records the span. `name` (and any arg name)
/// must be string literals — the recorder stores the pointers.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!TraceRecorder::Enabled()) return;
    Begin(name);
  }
  TraceSpan(const char* name, const char* arg_name, uint64_t arg_value) {
    if (!TraceRecorder::Enabled()) return;
    Begin(name);
    arg_name_ = arg_name;
    arg_value_ = arg_value;
  }
  ~TraceSpan() {
    if (active_) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches/overwrites the span's single integer annotation.
  void set_arg(const char* arg_name, uint64_t value) {
    if (!active_) return;
    arg_name_ = arg_name;
    arg_value_ = value;
  }

  bool active() const { return active_; }
  /// Nonzero only while active — children recorded manually (or on other
  /// threads via TraceAdopt) parent here.
  uint64_t span_id() const { return active_ ? span_id_ : 0; }
  uint64_t trace_id() const { return active_ ? trace_id_ : 0; }

 private:
  void Begin(const char* name);
  void End();

  bool active_ = false;
  const char* name_;
  const char* arg_name_;
  uint64_t arg_value_;
  uint64_t trace_id_;
  uint64_t span_id_;
  uint64_t saved_parent_;
  int64_t t0_ns_;
};

#define KOIOS_TRACE_CONCAT_INNER_(a, b) a##b
#define KOIOS_TRACE_CONCAT_(a, b) KOIOS_TRACE_CONCAT_INNER_(a, b)

/// Traces the enclosing scope. Disabled cost: one relaxed load + branch.
#define KOIOS_TRACE_SPAN(name) \
  ::koios::util::TraceSpan KOIOS_TRACE_CONCAT_(koios_trace_span_, __LINE__)(name)

/// Same, with one integer annotation rendered into the trace's args.
#define KOIOS_TRACE_SPAN_ARG(name, arg_name, arg_value)                        \
  ::koios::util::TraceSpan KOIOS_TRACE_CONCAT_(koios_trace_span_, __LINE__)(   \
      name, arg_name, static_cast<uint64_t>(arg_value))

}  // namespace koios::util

#endif  // KOIOS_UTIL_TRACE_RECORDER_H_
