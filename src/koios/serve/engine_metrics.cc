#include "koios/serve/engine_metrics.h"

#include "koios/sim/batched_neighbor_index.h"
#include "koios/util/trace_recorder.h"

namespace koios::serve {

namespace {

struct EngineMetrics {
  // EngineCounters mirrors (monotone sources -> counters).
  util::Counter* submitted;
  util::Counter* completed;
  util::Counter* rejected_queue_full;
  util::Counter* deadline_exceeded;
  util::Counter* rejected_wait_exceeds_deadline;
  util::Counter* cancelled;
  util::Counter* slow_queries;
  util::Counter* swaps_completed;
  util::Counter* swap_failures;
  // Overload governor.
  util::Gauge* latency_ewma_seconds;
  util::Gauge* estimated_queue_wait_seconds;
  // Percentiles of the engine's latency histogram.
  util::Gauge* latency_p50;
  util::Gauge* latency_p95;
  util::Gauge* latency_p99;
  util::Gauge* latency_max;
  // Aggregated SearchStats (monotone totals over completed queries).
  util::Counter* stream_tuples;
  util::Counter* stream_tuples_produced;
  util::Counter* candidates;
  util::Counter* iub_filtered;
  util::Counter* no_em_skipped;
  util::Counter* em_computed;
  util::Counter* em_early_terminated;
  // Cursor cache (of the CURRENT serving state's index).
  util::Counter* cache_hits;
  util::Counter* cache_misses;
  util::Counter* cache_duplicate_builds;
  util::Counter* cache_evictions;
  util::Gauge* cache_cursors;
  util::Gauge* cache_bytes;
  util::Gauge* cache_capacity_bytes;
};

}  // namespace

void RegisterEngineMetrics(util::MetricRegistry* registry,
                           const QueryEngine* engine) {
  RegisterEngineMetrics(registry,
                        [engine]() -> std::shared_ptr<const QueryEngine> {
                          // Non-owning alias: the caller guarantees the
                          // engine outlives the registry's renders.
                          return std::shared_ptr<const QueryEngine>(
                              std::shared_ptr<const QueryEngine>(), engine);
                        });
}

void RegisterEngineMetrics(
    util::MetricRegistry* registry,
    std::function<std::shared_ptr<const QueryEngine>()> resolve) {
  EngineMetrics m;
  m.submitted = registry->RegisterCounter(
      "koios_queries_submitted_total", "Queries that reached admission");
  m.completed = registry->RegisterCounter(
      "koios_queries_completed_total", "Queries answered successfully");
  m.rejected_queue_full =
      registry->RegisterCounter("koios_queries_rejected_queue_full_total",
                                "Admission rejections: bounded queue full");
  m.deadline_exceeded = registry->RegisterCounter(
      "koios_queries_deadline_exceeded_total",
      "Queries that expired waiting or mid-execution");
  m.rejected_wait_exceeds_deadline = registry->RegisterCounter(
      "koios_queries_rejected_wait_exceeds_deadline_total",
      "Fail-fast admissions: estimated queue wait exceeded the deadline "
      "budget (never fires on a cold engine)");
  m.cancelled = registry->RegisterCounter(
      "koios_queries_cancelled_total",
      "Queries aborted by a fired CancelToken (client disconnect)");
  m.slow_queries = registry->RegisterCounter(
      "koios_slow_queries_total",
      "Queries over the slow-query threshold (counted even when the log "
      "line itself was rate-limited away)");
  m.swaps_completed = registry->RegisterCounter(
      "koios_snapshot_swaps_completed_total", "Snapshot hot-swaps that landed");
  m.swap_failures = registry->RegisterCounter(
      "koios_snapshot_swap_failures_total",
      "Rejected reloads (corrupt or unloadable repository; engine kept "
      "serving the old snapshot)");
  m.latency_ewma_seconds = registry->RegisterGauge(
      "koios_query_latency_ewma_seconds",
      "EWMA service time; the overload governor's wait estimator");
  m.estimated_queue_wait_seconds = registry->RegisterGauge(
      "koios_estimated_queue_wait_seconds",
      "Governor estimate of a new query's queue wait (0 on a cold engine)");
  m.latency_p50 = registry->RegisterGauge(
      "koios_query_latency_p50_seconds",
      "Median query execution time (bucket estimate, within 9.1%)");
  m.latency_p95 = registry->RegisterGauge(
      "koios_query_latency_p95_seconds",
      "95th-percentile query execution time (bucket estimate)");
  m.latency_p99 = registry->RegisterGauge(
      "koios_query_latency_p99_seconds",
      "99th-percentile query execution time (bucket estimate)");
  m.latency_max = registry->RegisterGauge(
      "koios_query_latency_max_seconds",
      "Upper edge of the slowest query's latency bucket (0 while empty)");
  m.stream_tuples = registry->RegisterCounter(
      "koios_stream_tuples_consumed_total",
      "Token-stream tuples consumed by refinement across queries");
  m.stream_tuples_produced =
      registry->RegisterCounter("koios_stream_tuples_produced_total",
                                "Token-stream tuples materialized");
  m.candidates = registry->RegisterCounter("koios_candidates_total",
                                           "Distinct candidate sets seen");
  m.iub_filtered = registry->RegisterCounter(
      "koios_iub_filtered_total", "Candidates pruned by the (i)UB filter");
  m.no_em_skipped = registry->RegisterCounter(
      "koios_no_em_skipped_total",
      "Results admitted by the No-EM filter without matching");
  m.em_computed = registry->RegisterCounter("koios_em_computed_total",
                                            "Full exact matchings computed");
  m.em_early_terminated =
      registry->RegisterCounter("koios_em_early_terminated_total",
                                "Exact matchings cut by early termination");
  m.cache_hits = registry->RegisterCounter("koios_cursor_cache_hits_total",
                                           "Shared cursor cache hits");
  m.cache_misses = registry->RegisterCounter(
      "koios_cursor_cache_misses_total", "Shared cursor cache misses");
  m.cache_duplicate_builds =
      registry->RegisterCounter("koios_cursor_cache_duplicate_builds_total",
                                "Concurrent builders that raced and lost");
  m.cache_evictions = registry->RegisterCounter(
      "koios_cursor_cache_evictions_total",
      "Payloads dropped by the byte budget's CLOCK policy");
  m.cache_cursors = registry->RegisterGauge("koios_cursor_cache_cursors",
                                            "Currently cached cursors");
  m.cache_bytes = registry->RegisterGauge("koios_cursor_cache_bytes",
                                          "Bytes of cached cursor payloads");
  m.cache_capacity_bytes = registry->RegisterGauge(
      "koios_cursor_cache_capacity_bytes", "Configured budget (0 = unbounded)");

  // Every callback below keeps its own copy of `resolve`.
  registry->AddCollectionCallback([m, resolve] {
    const std::shared_ptr<const QueryEngine> engine = resolve();
    if (engine == nullptr) return;  // not built yet: metrics stay at 0
    const EngineCounters counters = engine->counters();
    m.submitted->Set(counters.submitted);
    m.completed->Set(counters.completed);
    m.rejected_queue_full->Set(counters.rejected_queue_full);
    m.deadline_exceeded->Set(counters.deadline_exceeded);
    m.rejected_wait_exceeds_deadline->Set(
        counters.rejected_wait_exceeds_deadline);
    m.cancelled->Set(counters.cancelled);
    m.slow_queries->Set(counters.slow_queries);
    m.swaps_completed->Set(counters.swaps_completed);
    m.swap_failures->Set(counters.swap_failures);

    m.latency_ewma_seconds->Set(engine->LatencyEwmaSeconds());
    m.estimated_queue_wait_seconds->Set(engine->EstimatedQueueWaitSeconds());
    const util::Histogram& latency = engine->latency();
    m.latency_p50->Set(latency.Percentile(50.0));
    m.latency_p95->Set(latency.Percentile(95.0));
    m.latency_p99->Set(latency.Percentile(99.0));
    m.latency_max->Set(latency.Percentile(100.0));

    const core::SearchStats stats = engine->search_stats();
    m.stream_tuples->Set(stats.stream_tuples);
    m.stream_tuples_produced->Set(stats.stream_tuples_produced);
    m.candidates->Set(stats.candidates);
    m.iub_filtered->Set(stats.iub_filtered);
    m.no_em_skipped->Set(stats.no_em_skipped);
    m.em_computed->Set(stats.em_computed);
    m.em_early_terminated->Set(stats.em_early_terminated);

    // The CURRENT serving state's cursor cache: after a hot swap this is
    // the new index's cache (the old one dies with its last query). The
    // snapshot() pointer pins it while we read, exactly like an in-flight
    // query would.
    if (std::shared_ptr<const Snapshot> snapshot = engine->snapshot()) {
      if (const auto* cache = dynamic_cast<const sim::BatchedNeighborIndex*>(
              snapshot->index())) {
        const sim::CursorCacheStats stats = cache->cursor_cache_stats();
        m.cache_hits->Set(stats.hits);
        m.cache_misses->Set(stats.misses);
        m.cache_duplicate_builds->Set(stats.duplicate_builds);
        m.cache_evictions->Set(stats.evictions);
        m.cache_cursors->Set(static_cast<double>(stats.cursors));
        m.cache_bytes->Set(static_cast<double>(stats.bytes));
        m.cache_capacity_bytes->Set(static_cast<double>(stats.capacity_bytes));
      }
    }
  });

  // Per-shard series (sharded engines only; an unsharded engine emits
  // none — series count is the ACTUAL shard count, so dashboards see the
  // real topology). Registered lazily from the callback, same pattern as
  // the phase histograms below: a duplicate registration returns the
  // existing series, and each render overwrites with the authoritative
  // snapshot. The EWMA gauges are the overload governor's per-shard view
  // — the governor itself reads the SLOWEST of them, not a blend.
  registry->AddCollectionCallback([registry, resolve] {
    const std::shared_ptr<const QueryEngine> engine = resolve();
    if (engine == nullptr) return;
    const size_t shards = engine->num_shards();
    if (shards <= 1) return;
    for (size_t i = 0; i < shards; ++i) {
      const std::string label = std::to_string(i);
      util::Gauge* ewma = registry->RegisterGauge(
          util::LabeledMetricName("koios_shard_latency_ewma_seconds", "shard",
                                  label),
          "Per-shard EWMA execution time (governor reads the slowest)");
      util::Gauge* p99 = registry->RegisterGauge(
          util::LabeledMetricName("koios_shard_latency_p99_seconds", "shard",
                                  label),
          "Per-shard 99th-percentile execution time (bucket estimate)");
      util::Counter* queries = registry->RegisterCounter(
          util::LabeledMetricName("koios_shard_queries_total", "shard", label),
          "Shard executions completed (one per shard per query)");
      util::Counter* produced = registry->RegisterCounter(
          util::LabeledMetricName("koios_shard_stream_tuples_produced_total",
                                  "shard", label),
          "Token-stream tuples this shard's producer materialized (the "
          "θlb-exchange savings show up here)");
      const util::Histogram& latency = engine->shard_latency(i);
      const core::SearchStats stats = engine->shard_search_stats(i);
      if (ewma != nullptr) ewma->Set(engine->ShardLatencyEwmaSeconds(i));
      if (p99 != nullptr) p99->Set(latency.Percentile(99.0));
      if (queries != nullptr) queries->Set(latency.Count());
      if (produced != nullptr) produced->Set(stats.stream_tuples_produced);
    }
  });

  // Per-phase span-time histograms. Phases appear dynamically as spans are
  // first recorded, so the labeled series are registered lazily from the
  // collection callback (callbacks run outside the registry lock, and a
  // duplicate registration returns the existing series). Each render
  // overwrites the series with the recorder's authoritative snapshot.
  registry->AddCollectionCallback([registry] {
    auto& rec = util::TraceRecorder::Instance();
    for (const util::TraceRecorder::PhaseSnapshot& phase :
         rec.PhaseHistograms()) {
      util::Histogram* hist = registry->RegisterHistogram(
          util::LabeledMetricName("koios_phase_seconds", "phase", phase.name),
          "Span wall time per pipeline phase (sampled queries only)",
          util::TraceRecorder::PhaseBucketBounds());
      if (hist != nullptr) hist->SetSnapshot(phase.buckets, phase.sum);
    }
  });
}

}  // namespace koios::serve
