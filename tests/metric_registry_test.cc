// MetricRegistry (ISSUE 8): the serving stack's metrics vocabulary.
// Registration must be idempotent with stable pointers, kind collisions
// must surface as nullptr instead of aliasing storage, histograms must
// bucket correctly (upper-bound inclusive, implicit +Inf), collection
// callbacks must refresh mirrored values at render time, the text
// exposition must be stable, parseable Prometheus format, and histogram
// percentiles must stay within one bucket of the exact nearest rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "koios/util/metric_registry.h"

namespace koios::util {
namespace {

TEST(MetricRegistryTest, RegistrationIsIdempotentWithStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.RegisterCounter("koios_test_total", "help one");
  ASSERT_NE(a, nullptr);
  a->Add(7);
  Counter* b = registry.RegisterCounter("koios_test_total", "help two");
  EXPECT_EQ(a, b);  // same name, same metric, same storage
  EXPECT_EQ(b->Value(), 7u);

  Gauge* g = registry.RegisterGauge("koios_test_gauge", "");
  EXPECT_EQ(registry.RegisterGauge("koios_test_gauge", ""), g);
}

TEST(MetricRegistryTest, KindCollisionReturnsNullInsteadOfAliasing) {
  MetricRegistry registry;
  ASSERT_NE(registry.RegisterCounter("koios_name", ""), nullptr);
  EXPECT_EQ(registry.RegisterGauge("koios_name", ""), nullptr);
  EXPECT_EQ(registry.RegisterHistogram("koios_name", "", {1.0}), nullptr);
  // Find mirrors the kind discipline.
  EXPECT_NE(registry.FindCounter("koios_name"), nullptr);
  EXPECT_EQ(registry.FindGauge("koios_name"), nullptr);
  EXPECT_EQ(registry.FindCounter("koios_absent"), nullptr);
}

TEST(MetricRegistryTest, CounterIgnoresNothingAndGaugeMoves) {
  MetricRegistry registry;
  Counter* c = registry.RegisterCounter("koios_c_total", "");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->Value(), 5u);
  c->Set(3);  // mirror semantics: authoritative source says 3
  EXPECT_EQ(c->Value(), 3u);

  Gauge* g = registry.RegisterGauge("koios_g", "");
  g->Set(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
}

TEST(MetricRegistryTest, HistogramBucketsAreUpperBoundInclusive) {
  MetricRegistry registry;
  Histogram* h =
      registry.RegisterHistogram("koios_h_seconds", "", {0.01, 0.1, 1.0});
  h->Observe(0.01);   // lands IN the 0.01 bucket (inclusive)
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(100.0);  // +Inf overflow
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 100.56);
  EXPECT_EQ(h->CumulativeCount(0), 1u);  // <= 0.01
  EXPECT_EQ(h->CumulativeCount(1), 2u);  // <= 0.1
  EXPECT_EQ(h->CumulativeCount(2), 3u);  // <= 1.0
}

TEST(MetricRegistryTest, ExponentialLatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double> bounds = ExponentialLatencyBuckets();
  ASSERT_GT(bounds.size(), 4u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at " << i;
  }
  EXPECT_LE(bounds.front(), 1e-3);  // covers sub-millisecond queries
  EXPECT_GE(bounds.back(), 10.0);   // and pathological stalls
}

TEST(MetricRegistryTest, CollectionCallbackRefreshesMirrorsAtRenderTime) {
  MetricRegistry registry;
  Counter* mirror = registry.RegisterCounter("koios_mirrored_total", "");
  std::atomic<uint64_t> authoritative{0};
  registry.AddCollectionCallback(
      [&] { mirror->Set(authoritative.load(std::memory_order_relaxed)); });

  authoritative.store(42);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("koios_mirrored_total 42"), std::string::npos) << text;
  EXPECT_EQ(mirror->Value(), 42u);

  authoritative.store(43);  // next scrape sees the new value, not a cache
  EXPECT_NE(registry.RenderText().find("koios_mirrored_total 43"),
            std::string::npos);
}

TEST(MetricRegistryTest, RenderTextIsPrometheusShaped) {
  MetricRegistry registry;
  registry.RegisterCounter("koios_requests_total", "Requests served")
      ->Add(2);
  registry.RegisterGauge("koios_ready", "Traffic-ready flag")->Set(1.0);
  Histogram* h =
      registry.RegisterHistogram("koios_latency_seconds", "Latency", {0.5});
  h->Observe(0.25);
  h->Observe(2.0);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# HELP koios_requests_total Requests served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE koios_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("koios_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE koios_ready gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE koios_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("koios_latency_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("koios_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("koios_latency_seconds_count 2"), std::string::npos);
  // Registration order is exposition order: stable scrapes diff cleanly.
  EXPECT_LT(text.find("koios_requests_total"), text.find("koios_ready"));
  EXPECT_LT(text.find("koios_ready"), text.find("koios_latency_seconds"));
}

TEST(MetricRegistryTest, ConcurrentMutationAndRenderIsSafe) {
  MetricRegistry registry;
  Counter* c = registry.RegisterCounter("koios_hot_total", "");
  Histogram* h = registry.RegisterHistogram("koios_hot_seconds", "",
                                            ExponentialLatencyBuckets());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        c->Increment();
        h->Observe(0.001);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const std::string text = registry.RenderText();
    EXPECT_NE(text.find("koios_hot_total"), std::string::npos);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(c->Value(), h->Count());  // one observe per increment
}

TEST(MetricRegistryTest, LabeledSeriesGroupUnderOneHelpAndTypeBlock) {
  MetricRegistry registry;
  registry
      .RegisterCounter(LabeledMetricName("koios_req_total", "dialect", "bin"),
                       "Requests by dialect")
      ->Add(3);
  registry
      .RegisterCounter(LabeledMetricName("koios_req_total", "dialect", "json"),
                       "Requests by dialect")
      ->Add(5);

  const std::string text = registry.RenderText();
  // One HELP and one TYPE line for the base name, two series under them.
  size_t help_count = 0;
  for (size_t pos = text.find("# HELP koios_req_total");
       pos != std::string::npos;
       pos = text.find("# HELP koios_req_total", pos + 1)) {
    ++help_count;
  }
  EXPECT_EQ(help_count, 1u) << text;
  EXPECT_NE(text.find("# TYPE koios_req_total counter"), std::string::npos);
  EXPECT_NE(text.find("koios_req_total{dialect=\"bin\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("koios_req_total{dialect=\"json\"} 5"),
            std::string::npos);
}

TEST(MetricRegistryTest, LabeledHistogramMergesLabelsWithLe) {
  MetricRegistry registry;
  Histogram* h = registry.RegisterHistogram(
      LabeledMetricName("koios_lat_seconds", "phase", "parse"), "", {0.5});
  h->Observe(0.1);
  h->Observe(2.0);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("koios_lat_seconds_bucket{phase=\"parse\",le=\"0.5\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("koios_lat_seconds_bucket{phase=\"parse\",le=\"+Inf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("koios_lat_seconds_count{phase=\"parse\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("koios_lat_seconds_sum{phase=\"parse\"} "),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE koios_lat_seconds histogram"),
            std::string::npos);
}

TEST(MetricRegistryTest, LabelValuesAndHelpTextAreEscaped) {
  // Label values escape backslash, quote, and newline per the Prometheus
  // text format; HELP lines escape backslash and newline.
  EXPECT_EQ(LabeledMetricName("m", "k", "a\"b"), "m{k=\"a\\\"b\"}");
  EXPECT_EQ(LabeledMetricName("m", "k", "a\\b"), "m{k=\"a\\\\b\"}");
  EXPECT_EQ(LabeledMetricName("m", "k", "a\nb"), "m{k=\"a\\nb\"}");

  MetricRegistry registry;
  registry.RegisterCounter("koios_esc_total", "line one\nline \\two")->Add(1);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# HELP koios_esc_total line one\\nline \\\\two"),
            std::string::npos)
      << text;
  // The raw newline must NOT appear inside the HELP line.
  EXPECT_EQ(text.find("line one\nline"), std::string::npos);
}

TEST(MetricRegistryTest, SetSnapshotOverwritesBucketsAndRecomputesCount) {
  MetricRegistry registry;
  Histogram* h =
      registry.RegisterHistogram("koios_snap_seconds", "", {0.1, 1.0});
  h->Observe(0.05);  // stale organic observation, overwritten below
  h->SetSnapshot({4, 2, 1}, 3.25);  // buckets incl. +Inf slot
  EXPECT_EQ(h->Count(), 7u);
  EXPECT_DOUBLE_EQ(h->Sum(), 3.25);
  EXPECT_EQ(h->CumulativeCount(0), 4u);
  EXPECT_EQ(h->CumulativeCount(1), 6u);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("koios_snap_seconds_bucket{le=\"+Inf\"} 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("koios_snap_seconds_count 7"), std::string::npos);

  // A short vector (fewer slots than buckets) must not read out of range,
  // and zeroes the buckets it does not name.
  h->SetSnapshot({9}, 1.0);
  EXPECT_EQ(h->CumulativeCount(0), 9u);
  EXPECT_EQ(h->CumulativeCount(1), 9u);
  EXPECT_EQ(h->Count(), 9u);
}

/// Exact nearest-rank percentile: the ceil(p/100 · n)-th smallest sample,
/// at least the first.
double NearestRank(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

/// The estimate shares the exact value's bucket (lo, hi], so it is off by
/// less than hi − lo = (ratio − 1)·lo; the first bucket [0, first] only
/// bounds it absolutely.
void ExpectWithinOneBucket(double estimate, double exact, double p) {
  const double first = FineLatencyBuckets().front();
  const double ratio = std::exp2(0.125);
  const double slack = (ratio - 1.0) * exact + (exact <= first ? first : 0.0);
  EXPECT_LE(std::abs(estimate - exact), slack)
      << "p=" << p << " estimate " << estimate << " exact " << exact;
}

TEST(HistogramPercentileTest, WithinOneFineBucketOfTheExactNearestRank) {
  // The engine's latency bounds on a seeded log-normal latency sample
  // (median 2 ms, a tail past 100 ms).
  Histogram h(FineLatencyBuckets());
  std::mt19937_64 rng(20231);
  std::lognormal_distribution<double> latency(std::log(0.002), 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(latency(rng));
    h.Observe(samples.back());
  }
  ASSERT_EQ(h.Count(), 10000u);
  for (double p : {0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    ExpectWithinOneBucket(h.Percentile(p), NearestRank(samples, p), p);
  }
}

TEST(HistogramPercentileTest, EdgeCases) {
  const std::vector<double> bounds = FineLatencyBuckets();
  ASSERT_EQ(bounds.size(), 221u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_LT(bounds.back(), 200.0);

  Histogram empty(bounds);
  for (double p : {0.0, 50.0, 100.0}) EXPECT_EQ(empty.Percentile(p), 0.0);

  // One sample: every percentile is that sample, to within its bucket.
  Histogram one(bounds);
  one.Observe(0.0025);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    ExpectWithinOneBucket(one.Percentile(p), 0.0025, p);
  }

  // Samples exactly on a bound land in the bucket that bound closes, so
  // p = 100 reads the bound itself and no percentile reads above it.
  Histogram on_bound(bounds);
  for (int i = 0; i < 3; ++i) on_bound.Observe(bounds[40]);
  EXPECT_DOUBLE_EQ(on_bound.Percentile(100.0), bounds[40]);
  EXPECT_GT(on_bound.Percentile(0.0), bounds[39]);
  EXPECT_LE(on_bound.Percentile(50.0), bounds[40]);

  // The +Inf bucket reads as the last finite bound.
  Histogram past(bounds);
  past.Observe(0.001);
  past.Observe(1000.0);
  EXPECT_DOUBLE_EQ(past.Percentile(100.0), bounds.back());
  ExpectWithinOneBucket(past.Percentile(50.0), 0.001, 50.0);
}

TEST(HistogramPercentileTest, GeometricBucketsKeepTheirBounds) {
  // ×2 from 100 µs for the server's request histograms.
  const std::vector<double> server = ExponentialLatencyBuckets();
  ASSERT_EQ(server.size(), 21u);
  EXPECT_DOUBLE_EQ(server.front(), 1e-4);
  EXPECT_DOUBLE_EQ(server.back(), 1e-4 * 1048576.0);
  // ×4 from 1 µs for the trace recorder's phase histograms.
  const std::vector<double> phases = GeometricBuckets(1e-6, 4.0, 300.0);
  ASSERT_EQ(phases.size(), 15u);
  EXPECT_DOUBLE_EQ(phases.back(), 1e-6 * 268435456.0);
}

TEST(MetricRegistryTest, CallbackMayRegisterNewSeriesDuringRender) {
  // Dynamic labeled series (e.g. koios_phase_seconds{phase=...}) register
  // lazily from collection callbacks; callbacks run outside the registry
  // lock so this must not deadlock, and the new series must appear in the
  // SAME render that created it.
  MetricRegistry registry;
  int renders = 0;
  registry.AddCollectionCallback([&registry, &renders] {
    ++renders;
    registry
        .RegisterCounter(LabeledMetricName("koios_dyn_total", "round",
                                           std::to_string(renders)),
                         "Dynamic series")
        ->Set(static_cast<uint64_t>(renders));
  });
  const std::string first = registry.RenderText();
  EXPECT_NE(first.find("koios_dyn_total{round=\"1\"} 1"), std::string::npos)
      << first;
  const std::string second = registry.RenderText();
  EXPECT_NE(second.find("koios_dyn_total{round=\"1\"} 1"), std::string::npos);
  EXPECT_NE(second.find("koios_dyn_total{round=\"2\"} 2"), std::string::npos);
}

TEST(MetricRegistryTest, ConcurrentObserveVersusExposeOnLabeledHistogram) {
  MetricRegistry registry;
  Histogram* h = registry.RegisterHistogram(
      LabeledMetricName("koios_conc_seconds", "phase", "em"), "",
      ExponentialLatencyBuckets());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        h->Observe(0.002);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const std::string text = registry.RenderText();
    EXPECT_NE(text.find("koios_conc_seconds_bucket{phase=\"em\",le=\""),
              std::string::npos);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
}

}  // namespace
}  // namespace koios::util
