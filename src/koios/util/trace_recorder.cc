#include "koios/util/trace_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>

#include "koios/util/metric_registry.h"

namespace koios::util {

std::atomic<uint32_t> TraceRecorder::enabled_{0};

// ----------------------------------------------------------- ring internals

// Seqlock slot: odd seq = the owning thread is mid-write, readers discard.
// Every field is an atomic, so concurrent snapshot reads are race-free by
// construction; the seq double-check only guards cross-field consistency.
struct TraceRecorder::Slot {
  std::atomic<uint64_t> seq{0};  // 0 = never written
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> parent_id{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<int64_t> t0_ns{0};
  std::atomic<int64_t> t1_ns{0};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<uint64_t> arg_value{0};
};

struct TraceRecorder::ThreadRing {
  ThreadRing(size_t capacity, uint32_t index)
      : mask(capacity - 1), thread_index(index),
        slots(std::make_unique<Slot[]>(capacity)) {}

  const size_t mask;  // capacity is a power of two
  const uint32_t thread_index;
  std::atomic<uint64_t> head{0};  // next write position (owner-only store)
  std::unique_ptr<Slot[]> slots;
};

struct TraceRecorder::PhaseHist {
  std::atomic<const char*> name{nullptr};
  Histogram seconds{PhaseBucketBounds()};
};

struct TraceRecorder::TlsState {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  std::shared_ptr<ThreadRing> ring;  // shared with rings_, survives thread exit
};

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ------------------------------------------------------------ TraceRecorder

TraceRecorder::TraceRecorder()
    : phases_(std::make_unique<PhaseHist[]>(kMaxPhases)) {
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

TraceRecorder& TraceRecorder::Instance() {
  // Leaked singleton: spans can record from detached threads during
  // process teardown, so the recorder must outlive every static dtor.
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

TraceRecorder::TlsState& TraceRecorder::Tls() {
  static thread_local TlsState tls;
  return tls;
}

void TraceRecorder::Configure(const Options& options) {
  ring_spans_.store(RoundUpPow2(options.ring_spans),
                    std::memory_order_relaxed);
  sample_every_.store(options.sample_every, std::memory_order_relaxed);
  enabled_.store(options.sample_every > 0 ? 1 : 0, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(0, std::memory_order_relaxed);
  sample_every_.store(0, std::memory_order_relaxed);
}

int64_t TraceRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

uint64_t TraceRecorder::StartTrace() {
  if (!Enabled()) return 0;
  const uint32_t n = sample_every_.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  if (arrivals_.fetch_add(1, std::memory_order_relaxed) % n != 0) return 0;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TraceRecorder::StartTraceForced() {
  if (!Enabled()) return 0;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

TraceRecorder::ThreadContext TraceRecorder::Current() {
  if (!Enabled()) return {};
  const TlsState& tls = Tls();
  return {tls.trace_id, tls.parent_span};
}

TraceRecorder::ThreadRing* TraceRecorder::LocalRing() {
  TlsState& tls = Tls();
  if (tls.ring == nullptr) {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    tls.ring = std::make_shared<ThreadRing>(
        ring_spans_.load(std::memory_order_relaxed), next_thread_index_++);
    rings_.push_back(tls.ring);
  }
  return tls.ring.get();
}

void TraceRecorder::Push(const TraceSpanRecord& record) {
  ThreadRing* ring = LocalRing();
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[h & ring->mask];
  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  // Seqlock write: odd seq published before the fields (release fence),
  // even seq after them (release store) — a reader whose before/after seq
  // reads agree on an even value saw one consistent record.
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.trace_id.store(record.trace_id, std::memory_order_relaxed);
  slot.span_id.store(record.span_id, std::memory_order_relaxed);
  slot.parent_id.store(record.parent_id, std::memory_order_relaxed);
  slot.name.store(record.name, std::memory_order_relaxed);
  slot.t0_ns.store(record.t0_ns, std::memory_order_relaxed);
  slot.t1_ns.store(record.t1_ns, std::memory_order_relaxed);
  slot.arg_name.store(record.arg_name, std::memory_order_relaxed);
  slot.arg_value.store(record.arg_value, std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
}

void TraceRecorder::RecordManualSpan(const char* name, uint64_t trace_id,
                                     uint64_t span_id, uint64_t parent_id,
                                     int64_t t0_ns, int64_t t1_ns,
                                     const char* arg_name,
                                     uint64_t arg_value) {
  if (!Enabled() || trace_id == 0) return;
  TraceSpanRecord record;
  record.trace_id = trace_id;
  record.span_id = span_id != 0 ? span_id : NewSpanId();
  record.parent_id = parent_id;
  record.name = name;
  record.t0_ns = t0_ns;
  record.t1_ns = t1_ns;
  record.arg_name = arg_name;
  record.arg_value = arg_value;
  Push(record);
  RecordPhase(name, static_cast<double>(t1_ns - t0_ns) * 1e-9);
}

void TraceRecorder::SnapshotInto(std::vector<TraceSpanRecord>* out,
                                 uint64_t trace_filter, bool filter) const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    const size_t capacity = ring->mask + 1;
    for (size_t i = 0; i < capacity; ++i) {
      const Slot& slot = ring->slots[i];
      for (int attempt = 0; attempt < 3; ++attempt) {
        const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 == 0) break;           // never written
        if ((s1 & 1) != 0) continue;  // mid-write, retry
        TraceSpanRecord record;
        record.trace_id = slot.trace_id.load(std::memory_order_relaxed);
        record.span_id = slot.span_id.load(std::memory_order_relaxed);
        record.parent_id = slot.parent_id.load(std::memory_order_relaxed);
        record.name = slot.name.load(std::memory_order_relaxed);
        record.t0_ns = slot.t0_ns.load(std::memory_order_relaxed);
        record.t1_ns = slot.t1_ns.load(std::memory_order_relaxed);
        record.arg_name = slot.arg_name.load(std::memory_order_relaxed);
        record.arg_value = slot.arg_value.load(std::memory_order_relaxed);
        record.thread_index = ring->thread_index;
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
        if (record.name == nullptr) break;  // reset mid-flight
        if (!filter || record.trace_id == trace_filter) {
          out->push_back(record);
        }
        break;
      }
    }
  }
}

std::vector<TraceSpanRecord> TraceRecorder::Snapshot() const {
  std::vector<TraceSpanRecord> out;
  SnapshotInto(&out, 0, /*filter=*/false);
  return out;
}

std::vector<TraceSpanRecord> TraceRecorder::SnapshotTrace(
    uint64_t trace_id) const {
  std::vector<TraceSpanRecord> out;
  SnapshotInto(&out, trace_id, /*filter=*/true);
  return out;
}

// -------------------------------------------------------------- phase hists

const std::vector<double>& TraceRecorder::PhaseBucketBounds() {
  static const std::vector<double>* bounds =
      new std::vector<double>(GeometricBuckets(1e-6, 4.0, 300.0));
  return *bounds;
}

void TraceRecorder::RecordPhase(const char* name, double seconds) {
  const size_t n = num_phases_.load(std::memory_order_acquire);
  PhaseHist* hist = nullptr;
  for (size_t i = 0; i < n; ++i) {
    const char* have = phases_[i].name.load(std::memory_order_relaxed);
    if (have == name || (have != nullptr && std::strcmp(have, name) == 0)) {
      hist = &phases_[i];
      break;
    }
  }
  if (hist == nullptr) {
    std::lock_guard<std::mutex> lock(phases_mutex_);
    const size_t m = num_phases_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < m; ++i) {
      const char* have = phases_[i].name.load(std::memory_order_relaxed);
      if (have == name || (have != nullptr && std::strcmp(have, name) == 0)) {
        hist = &phases_[i];
        break;
      }
    }
    if (hist == nullptr) {
      if (m >= kMaxPhases) return;  // table full: drop, never block
      phases_[m].name.store(name, std::memory_order_relaxed);
      num_phases_.store(m + 1, std::memory_order_release);
      hist = &phases_[m];
    }
  }
  hist->seconds.Observe(seconds);
}

std::vector<TraceRecorder::PhaseSnapshot> TraceRecorder::PhaseHistograms()
    const {
  const size_t n = num_phases_.load(std::memory_order_acquire);
  const size_t buckets = PhaseBucketBounds().size() + 1;
  std::vector<PhaseSnapshot> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PhaseSnapshot snap;
    snap.name = phases_[i].name.load(std::memory_order_relaxed);
    if (snap.name == nullptr) continue;
    const Histogram& hist = phases_[i].seconds;
    snap.buckets.resize(buckets);
    uint64_t below = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint64_t cumulative = hist.CumulativeCount(b);
      snap.buckets[b] = cumulative - below;
      below = cumulative;
    }
    snap.count = hist.Count();
    snap.sum = hist.Sum();
    out.push_back(std::move(snap));
  }
  return out;
}

void TraceRecorder::ResetForTest() {
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& ring : rings_) {
      const size_t capacity = ring->mask + 1;
      for (size_t i = 0; i < capacity; ++i) {
        ring->slots[i].name.store(nullptr, std::memory_order_relaxed);
        ring->slots[i].seq.store(0, std::memory_order_relaxed);
      }
      ring->head.store(0, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(phases_mutex_);
    const size_t n = num_phases_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      phases_[i].name.store(nullptr, std::memory_order_relaxed);
      phases_[i].seconds.SetSnapshot({}, 0.0);
    }
    num_phases_.store(0, std::memory_order_relaxed);
  }
  arrivals_.store(0, std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- exports

namespace {

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

std::string FormatMicros(int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) * 1e-3);
  return buf;
}

}  // namespace

std::string TraceRecorder::RenderChromeTraceJson() const {
  std::vector<TraceSpanRecord> spans = Snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpanRecord& a, const TraceSpanRecord& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.span_id < b.span_id;
            });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  uint64_t last_trace = 0;
  for (const TraceSpanRecord& span : spans) {
    if (span.trace_id != last_trace) {
      // One Perfetto "process" track per sampled query.
      last_trace = span.trace_id;
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(span.trace_id) +
             ",\"tid\":0,\"args\":{\"name\":\"trace " +
             std::to_string(span.trace_id) + "\"}}";
    }
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, span.name);
    out += "\",\"cat\":\"koios\",\"ph\":\"X\",\"ts\":" +
           FormatMicros(span.t0_ns) +
           ",\"dur\":" + FormatMicros(span.t1_ns - span.t0_ns) +
           ",\"pid\":" + std::to_string(span.trace_id) +
           ",\"tid\":" + std::to_string(span.thread_index) +
           ",\"args\":{\"span_id\":" + std::to_string(span.span_id) +
           ",\"parent_id\":" + std::to_string(span.parent_id);
    if (span.arg_name != nullptr) {
      out += ",\"";
      AppendJsonEscaped(&out, span.arg_name);
      out += "\":" + std::to_string(span.arg_value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::RenderSpanTree(uint64_t trace_id) const {
  std::vector<TraceSpanRecord> spans = SnapshotTrace(trace_id);
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpanRecord& a, const TraceSpanRecord& b) {
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.span_id < b.span_id;
            });
  std::string out = "trace " + std::to_string(trace_id) + " (" +
                    std::to_string(spans.size()) + " spans)\n";
  if (spans.empty()) {
    out += "  (no spans recorded — query not sampled or ring overwritten)\n";
    return out;
  }
  std::vector<bool> emitted(spans.size(), false);
  // Roots: parent absent from this trace's recorded spans.
  auto has_parent = [&](const TraceSpanRecord& s) {
    if (s.parent_id == 0) return false;
    for (const TraceSpanRecord& other : spans) {
      if (other.span_id == s.parent_id) return true;
    }
    return false;
  };
  // Recursive emit, depth-first in start-time order.
  std::function<void(uint64_t, int)> emit_children = [&](uint64_t parent,
                                                         int depth) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const TraceSpanRecord& s = spans[i];
      if (emitted[i]) continue;
      const bool is_child =
          parent == 0 ? !has_parent(s) : s.parent_id == parent;
      if (!is_child) continue;
      emitted[i] = true;
      char line[160];
      std::snprintf(line, sizeof(line), "  %*s%-28s %10.3f ms", depth * 2, "",
                    s.name, static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6);
      out += line;
      if (s.arg_name != nullptr) {
        out += "  [";
        out += s.arg_name;
        out += '=';
        out += std::to_string(s.arg_value);
        out += ']';
      }
      out += "\n";
      emit_children(s.span_id, depth + 1);
    }
  };
  emit_children(0, 0);
  return out;
}

// ------------------------------------------------------- TraceSpan / Adopt

void TraceSpan::Begin(const char* name) {
  TraceRecorder::TlsState& tls = TraceRecorder::Tls();
  if (tls.trace_id == 0) return;  // enabled, but this query is unsampled
  TraceRecorder& rec = TraceRecorder::Instance();
  name_ = name;
  arg_name_ = nullptr;
  arg_value_ = 0;
  trace_id_ = tls.trace_id;
  span_id_ = rec.NewSpanId();
  saved_parent_ = tls.parent_span;
  tls.parent_span = span_id_;
  t0_ns_ = rec.NowNs();
  active_ = true;
}

void TraceSpan::End() {
  TraceRecorder& rec = TraceRecorder::Instance();
  const int64_t t1 = rec.NowNs();
  TraceRecorder::TlsState& tls = TraceRecorder::Tls();
  tls.parent_span = saved_parent_;
  TraceSpanRecord record;
  record.trace_id = trace_id_;
  record.span_id = span_id_;
  record.parent_id = saved_parent_;
  record.name = name_;
  record.t0_ns = t0_ns_;
  record.t1_ns = t1;
  record.arg_name = arg_name_;
  record.arg_value = arg_value_;
  rec.Push(record);
  rec.RecordPhase(name_, static_cast<double>(t1 - t0_ns_) * 1e-9);
  active_ = false;
}

TraceAdopt::TraceAdopt(uint64_t trace_id, uint64_t parent_span) {
  if (!TraceRecorder::Enabled() || trace_id == 0) return;
  TraceRecorder::TlsState& tls = TraceRecorder::Tls();
  saved_trace_ = tls.trace_id;
  saved_parent_ = tls.parent_span;
  tls.trace_id = trace_id;
  tls.parent_span = parent_span;
  active_ = true;
}

TraceAdopt::~TraceAdopt() {
  if (!active_) return;
  TraceRecorder::TlsState& tls = TraceRecorder::Tls();
  tls.trace_id = saved_trace_;
  tls.parent_span = saved_parent_;
}

}  // namespace koios::util
