// TraceRecorder (ISSUE 9): the sampled span profiler behind /debug/tracez,
// the slow-query log, and koios_phase_seconds. Pinned here:
//   * the disabled path records nothing and hands out no trace ids;
//   * sampling is deterministic (1st, N+1th, ... arrivals after Configure);
//   * spans nest (parent ids) and survive cross-thread adoption;
//   * per-thread rings wrap in place, keeping the newest spans;
//   * phase histograms bucket span durations;
//   * RenderChromeTraceJson emits schema-valid Chrome trace-event JSON;
//   * an end-to-end engine query's spans cover >= 95% of the search span.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "koios/serve/query_engine.h"
#include "koios/util/fault_injector.h"
#include "koios/util/trace_recorder.h"
#include "test_util.h"

namespace koios::util {
namespace {

/// Reconfigures the (process-global) recorder and wipes previous state.
/// Tests in this file run serially within gtest, so the shared singleton
/// is safe to reset between them.
void ResetRecorder(uint32_t sample_every, size_t ring_spans = 4096) {
  TraceRecorder& rec = TraceRecorder::Instance();
  rec.Disable();
  rec.ResetForTest();
  if (sample_every > 0) {
    TraceRecorder::Options options;
    options.sample_every = sample_every;
    options.ring_spans = ring_spans;
    rec.Configure(options);
  }
}

TEST(TraceRecorderTest, DisabledPathRecordsNothing) {
  ResetRecorder(0);
  TraceRecorder& rec = TraceRecorder::Instance();
  EXPECT_FALSE(TraceRecorder::Enabled());
  EXPECT_EQ(rec.StartTrace(), 0u);
  EXPECT_EQ(rec.StartTraceForced(), 0u);
  {
    KOIOS_TRACE_SPAN("test.disabled");
    KOIOS_TRACE_SPAN_ARG("test.disabled_arg", "n", 7);
  }
  rec.RecordManualSpan("test.manual", /*trace_id=*/0, 0, 0, 0, 10);
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_TRUE(rec.PhaseHistograms().empty());
}

TEST(TraceRecorderTest, SamplingIsDeterministicOneInN) {
  ResetRecorder(4);
  TraceRecorder& rec = TraceRecorder::Instance();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(rec.StartTrace());
  // Arrivals 0, 4, 8 are sampled; every other arrival gets 0.
  for (int i = 0; i < 12; ++i) {
    if (i % 4 == 0) {
      EXPECT_NE(ids[i], 0u) << "arrival " << i;
    } else {
      EXPECT_EQ(ids[i], 0u) << "arrival " << i;
    }
  }
  // Sampled ids are distinct.
  EXPECT_NE(ids[0], ids[4]);
  EXPECT_NE(ids[4], ids[8]);
}

TEST(TraceRecorderTest, SpansNestAndUnsampledSpansAreFree) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();

  // No ambient trace: the span object stays inactive and records nothing.
  {
    KOIOS_TRACE_SPAN("test.orphan");
  }
  EXPECT_TRUE(rec.Snapshot().empty());

  const uint64_t trace = rec.StartTraceForced();
  ASSERT_NE(trace, 0u);
  TraceAdopt adopt(trace, 0);
  uint64_t outer_id = 0;
  {
    TraceSpan outer("test.outer");
    outer_id = outer.span_id();
    TraceSpan inner("test.inner", "arg", 42);
    EXPECT_EQ(inner.trace_id(), trace);
  }

  const std::vector<TraceSpanRecord> spans = rec.SnapshotTrace(trace);
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpanRecord* outer = nullptr;
  const TraceSpanRecord* inner = nullptr;
  for (const TraceSpanRecord& s : spans) {
    if (std::string(s.name) == "test.outer") outer = &s;
    if (std::string(s.name) == "test.inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);           // root under the adopted trace
  EXPECT_EQ(inner->parent_id, outer_id);     // nested under the outer span
  EXPECT_EQ(std::string(inner->arg_name), "arg");
  EXPECT_EQ(inner->arg_value, 42u);
  EXPECT_LE(outer->t0_ns, inner->t0_ns);     // inner opened after outer
  EXPECT_GE(outer->t1_ns, inner->t1_ns);     // and closed before it
}

TEST(TraceRecorderTest, AdoptionCarriesTracesAcrossThreads) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();
  const uint64_t trace = rec.StartTraceForced();
  uint64_t root = 0;
  {
    TraceAdopt adopt(trace, 0);
    TraceSpan parent("test.parent");
    root = parent.span_id();
    std::thread worker([&] {
      TraceAdopt hop(trace, root);
      KOIOS_TRACE_SPAN("test.worker");
    });
    worker.join();
  }
  const std::vector<TraceSpanRecord> spans = rec.SnapshotTrace(trace);
  ASSERT_EQ(spans.size(), 2u);
  uint32_t parent_thread = 0, worker_thread = 0;
  for (const TraceSpanRecord& s : spans) {
    if (std::string(s.name) == "test.worker") {
      EXPECT_EQ(s.parent_id, root);
      worker_thread = s.thread_index;
    } else {
      parent_thread = s.thread_index;
    }
  }
  EXPECT_NE(parent_thread, worker_thread);  // recorded on separate rings
}

TEST(TraceRecorderTest, RingWrapsInPlaceKeepingNewestSpans) {
  // Ring capacity rounds up to a power of two; ask for 8 exactly. Capacity
  // applies to threads recording their FIRST span after Configure, so the
  // wrapping writer runs on a fresh thread (the test main thread's ring
  // was already sized by earlier tests).
  ResetRecorder(1, /*ring_spans=*/8);
  TraceRecorder& rec = TraceRecorder::Instance();
  const uint64_t trace = rec.StartTraceForced();
  std::thread writer([&] {
    TraceAdopt adopt(trace, 0);
    for (int i = 0; i < 100; ++i) {
      TraceSpan span("test.wrap", "i", static_cast<uint64_t>(i));
    }
  });
  writer.join();
  const std::vector<TraceSpanRecord> spans = rec.SnapshotTrace(trace);
  ASSERT_EQ(spans.size(), 8u);  // exactly one ring of the newest spans
  for (const TraceSpanRecord& s : spans) {
    EXPECT_GE(s.arg_value, 92u);  // 92..99 survive, 0..91 overwritten
  }
  // The phase histogram saw ALL 100 spans — it aggregates, never wraps.
  bool found = false;
  for (const auto& phase : rec.PhaseHistograms()) {
    if (std::string(phase.name) == "test.wrap") {
      EXPECT_EQ(phase.count, 100u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceRecorderTest, PhaseHistogramsBucketDurations) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();
  const uint64_t trace = rec.StartTraceForced();
  // Manual spans give exact durations: 2us, 10ms, 1s.
  rec.RecordManualSpan("test.phase", trace, 0, 0, 0, 2000);
  rec.RecordManualSpan("test.phase", trace, 0, 0, 0, 10000000);
  rec.RecordManualSpan("test.phase", trace, 0, 0, 0, 1000000000);

  const std::vector<double>& bounds = TraceRecorder::PhaseBucketBounds();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  const auto phases = rec.PhaseHistograms();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(std::string(phases[0].name), "test.phase");
  EXPECT_EQ(phases[0].count, 3u);
  EXPECT_NEAR(phases[0].sum, 1.010002, 1e-6);
  ASSERT_EQ(phases[0].buckets.size(), bounds.size() + 1);
  uint64_t total = 0;
  for (uint64_t b : phases[0].buckets) total += b;
  EXPECT_EQ(total, 3u);
}

// ---- Chrome trace-event JSON schema validation --------------------------
// A small recursive-descent JSON parser: enough to prove the tracez
// payload parses and has the Chrome trace-event shape Perfetto loads.

struct JsonCursor {
  const std::string& text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos])) != 0) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out = nullptr) {
    SkipWs();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    std::string value;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) return false;
        // Validate the escape class; decoding fidelity is not under test.
        if (std::string("\"\\/bfnrtu").find(text[pos]) == std::string::npos) {
          return false;
        }
        if (text[pos] == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos;
            if (pos >= text.size() ||
                std::isxdigit(static_cast<unsigned char>(text[pos])) == 0) {
              return false;
            }
          }
        }
      } else if (static_cast<unsigned char>(text[pos]) < 0x20) {
        return false;  // raw control characters are invalid JSON
      }
      value += text[pos];
      ++pos;
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    if (out != nullptr) *out = value;
    return true;
  }
  bool ParseNumber() {
    SkipWs();
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    return pos > start;
  }
  bool ParseValue() {
    SkipWs();
    if (pos >= text.size()) return false;
    const char c = text[pos];
    if (c == '{') return ParseObject(nullptr);
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (text.compare(pos, 4, "true") == 0) return pos += 4, true;
    if (text.compare(pos, 5, "false") == 0) return pos += 5, true;
    if (text.compare(pos, 4, "null") == 0) return pos += 4, true;
    return ParseNumber();
  }
  bool ParseArray() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    do {
      if (!ParseValue()) return false;
    } while (Eat(','));
    return Eat(']');
  }
  bool ParseObject(std::vector<std::string>* keys) {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!ParseString(&key)) return false;
      if (keys != nullptr) keys->push_back(key);
      if (!Eat(':')) return false;
      if (!ParseValue()) return false;
    } while (Eat(','));
    return Eat('}');
  }
};

TEST(TraceRecorderTest, ChromeTraceJsonIsSchemaValid) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();
  const uint64_t trace = rec.StartTraceForced();
  {
    TraceAdopt adopt(trace, 0);
    TraceSpan root("test.request");
    // A name needing escaping would be a literal with quotes; args cover
    // the numeric path.
    TraceSpan child("test.child", "bytes", 1234);
  }

  const std::string json = rec.RenderChromeTraceJson();
  JsonCursor cursor{json};
  std::vector<std::string> top_keys;
  ASSERT_TRUE(cursor.ParseObject(&top_keys)) << json;
  cursor.SkipWs();
  EXPECT_EQ(cursor.pos, json.size()) << "trailing bytes after JSON object";

  bool has_events = false;
  for (const std::string& key : top_keys) {
    if (key == "traceEvents") has_events = true;
  }
  EXPECT_TRUE(has_events) << json;

  // Event-shape spot checks: complete events with microsecond ts/dur and
  // the per-trace process metadata Perfetto uses for track names.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.child\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  // Disabled renders stay valid JSON with an empty event list.
  ResetRecorder(0);
  const std::string empty = rec.RenderChromeTraceJson();
  JsonCursor empty_cursor{empty};
  EXPECT_TRUE(empty_cursor.ParseObject(nullptr)) << empty;
}

TEST(TraceRecorderTest, SpanTreeRendersNestedDurations) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();
  const uint64_t trace = rec.StartTraceForced();
  {
    TraceAdopt adopt(trace, 0);
    TraceSpan outer("test.outer");
    TraceSpan inner("test.inner");
  }
  const std::string tree = rec.RenderSpanTree(trace);
  const size_t outer_pos = tree.find("test.outer");
  const size_t inner_pos = tree.find("test.inner");
  ASSERT_NE(outer_pos, std::string::npos) << tree;
  ASSERT_NE(inner_pos, std::string::npos) << tree;
  EXPECT_NE(tree.find("ms"), std::string::npos);
  // The child is indented deeper than its parent.
  const size_t outer_line = tree.rfind('\n', outer_pos);
  const size_t inner_line = tree.rfind('\n', inner_pos);
  const size_t outer_indent =
      outer_pos - (outer_line == std::string::npos ? 0 : outer_line + 1);
  const size_t inner_indent =
      inner_pos - (inner_line == std::string::npos ? 0 : inner_line + 1);
  EXPECT_GT(inner_indent, outer_indent) << tree;
}

// ---- end-to-end: a real engine query's spans cover its search time ------

TEST(TraceRecorderTest, EngineQuerySpansCoverSearchWallTime) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();

  auto w = koios::testing::MakeRandomWorkload(400, 600, 8, 24, 90807);
  serve::EngineOptions options;
  options.num_threads = 2;
  serve::QueryEngine engine(&w.corpus.sets, w.index.get(), options);

  core::SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  const auto tokens = w.corpus.sets.Tokens(0);
  // The query takes well under a millisecond, so one preemption inside an
  // uninstrumented gap can cost a run its coverage; a phase that loses its
  // span fails every run. The bar applies to the best of a few runs.
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    const serve::QueryEngine::Result result =
        engine.Submit({tokens.begin(), tokens.end()}, params).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // For each traced query, find the search root and sum its direct
  // children (the serial serve pipeline: cursor build -> refinement ->
  // postprocess partition its wall time; em batches nest inside
  // postprocess).
  const std::vector<TraceSpanRecord> spans = rec.Snapshot();
  int searches = 0;
  double best_coverage = 0.0;
  for (const TraceSpanRecord& search : spans) {
    if (std::string(search.name) != "search") continue;
    ++searches;
    double children_sec = 0.0;
    bool saw_queue_wait = false;
    for (const TraceSpanRecord& s : spans) {
      if (s.trace_id != search.trace_id) continue;
      if (s.parent_id == search.span_id &&
          std::string(s.name).rfind("search.", 0) == 0) {
        children_sec += s.DurationSeconds();
      }
      if (std::string(s.name) == "serve.queue_wait") saw_queue_wait = true;
    }
    EXPECT_TRUE(saw_queue_wait);
    const double search_sec = search.DurationSeconds();
    ASSERT_GT(search_sec, 0.0);
    EXPECT_LE(children_sec, search_sec * 1.001);
    best_coverage = std::max(best_coverage, children_sec / search_sec);
  }
  ASSERT_EQ(searches, kRuns) << "a query was not traced";
  // The acceptance bar: instrumented phases account for >= 95% of the
  // search span's wall time.
  EXPECT_GE(best_coverage, 0.95);
}

TEST(TraceRecorderTest, SlowQueryLogDumpsSpanTreeAndStats) {
  ResetRecorder(1);

  auto w = koios::testing::MakeRandomWorkload(2000, 1200, 10, 30, 90808);
  serve::EngineOptions options;
  options.num_threads = 1;
  // Threshold 0ms is "off"; 1 ms is the smallest one, and the stalled
  // query below exceeds it on any machine.
  options.slow_query_threshold = std::chrono::milliseconds(1);
  std::vector<std::string> logged;
  options.slow_query_sink = [&logged](const std::string& line) {
    logged.push_back(line);
  };
  serve::QueryEngine engine(&w.corpus.sets, w.index.get(), options);

  core::SearchParams params;
  params.k = 10;
  params.alpha = 0.7;
  const auto tokens = w.corpus.sets.Tokens(1);
  {
    // Stall the query at refinement's cancellation poll, so it is slow on
    // any host.
    util::FaultSpec stall;
    stall.latency = std::chrono::milliseconds(5);
    util::ScopedFault slow("refinement.cancel_poll", stall);
    const serve::QueryEngine::Result result =
        engine.Submit({tokens.begin(), tokens.end()}, params).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  ASSERT_EQ(engine.counters().slow_queries, 1u);
  ASSERT_FALSE(logged.empty());
  const std::string& line = logged.front();
  EXPECT_NE(line.find("slow query:"), std::string::npos) << line;
  EXPECT_NE(line.find("k=10"), std::string::npos);
  // The query was sampled (1-in-1), so the dump carries its span tree and
  // the per-phase stats block.
  EXPECT_NE(line.find("search"), std::string::npos);
  EXPECT_NE(line.find("ms"), std::string::npos);
}

TEST(TraceRecorderTest, DisableQuiescesRecordingImmediately) {
  ResetRecorder(1);
  TraceRecorder& rec = TraceRecorder::Instance();
  const uint64_t trace = rec.StartTraceForced();
  {
    TraceAdopt adopt(trace, 0);
    KOIOS_TRACE_SPAN("test.before");
  }
  rec.Disable();
  EXPECT_FALSE(TraceRecorder::Enabled());
  EXPECT_EQ(rec.StartTrace(), 0u);
  {
    // Adoption and spans after Disable are inert.
    TraceAdopt adopt(trace, 0);
    KOIOS_TRACE_SPAN("test.after");
  }
  bool saw_after = false;
  for (const TraceSpanRecord& s : rec.Snapshot()) {
    if (std::string(s.name) == "test.after") saw_after = true;
  }
  EXPECT_FALSE(saw_after);
}

}  // namespace
}  // namespace koios::util
