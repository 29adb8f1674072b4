// Bridges the serve subsystem's pre-existing instrumentation — the
// EngineCounters, the latency histograms' percentiles and the EWMAs, the
// aggregated per-query SearchStats, and the shared cursor cache's
// CursorCacheStats — into a util::MetricRegistry, replacing the ad-hoc
// printf plumbing the examples and benches used. The bridge is a
// collection CALLBACK: nothing is double-counted on the hot path; at
// scrape time the callback reads the authoritative sources and refreshes
// the registered metrics, so the /metrics endpoint always reflects the
// engine the daemon is serving with RIGHT NOW (hot swaps flip the cursor
// cache underneath it transparently).
#ifndef KOIOS_SERVE_ENGINE_METRICS_H_
#define KOIOS_SERVE_ENGINE_METRICS_H_

#include <functional>
#include <memory>

#include "koios/serve/query_engine.h"
#include "koios/util/metric_registry.h"

namespace koios::serve {

/// Registers the engine's metric family under the `koios_` prefix and a
/// collection callback that refreshes it on every RenderText. `resolve` is
/// called per render and may return null (engine not built yet — e.g. a
/// daemon whose first snapshot has not loaded); the metrics then stay at
/// their last values (initially 0). The resolved engine must stay alive
/// for the duration of the render (returning a shared_ptr guarantees it).
/// Idempotent metric names: register ONE engine family per registry.
void RegisterEngineMetrics(
    util::MetricRegistry* registry,
    std::function<std::shared_ptr<const QueryEngine>()> resolve);

/// Convenience overload for a fixed engine that outlives the registry's
/// last RenderText call (tests, single-engine servers).
void RegisterEngineMetrics(util::MetricRegistry* registry,
                           const QueryEngine* engine);

}  // namespace koios::serve

#endif  // KOIOS_SERVE_ENGINE_METRICS_H_
