// QueryEngine — the concurrent serving layer over one immutable repository
// snapshot. KoiosSearcher::Search answers ONE query; this engine
// multiplexes many over a shared util::ThreadPool:
//
//  * Shared immutable state. The engine owns the shard inverted indexes
//    (inside one const KoiosSearcher; at one shard it borrows a v4
//    snapshot's own ranked postings instead) and borrows the snapshot's
//    immutable neighbor index; every query runs the searcher's reentrant
//    search, whose token stream probes through a session of its own, so
//    concurrent queries share built cursors (the sharded cache pays each
//    (token, α) build once across the whole workload) while consuming
//    them independently. Results are bit-identical to serial
//    one-at-a-time Search.
//  * Admission control. At most `num_threads` queries run at once; beyond
//    that, up to `max_queue` wait. Overflow is rejected IMMEDIATELY with
//    ResourceExhausted (an overloaded serving system must shed load, not
//    grow an unbounded queue). A query may carry a deadline; one that
//    expires before or while running is rejected cleanly with
//    DeadlineExceeded and NO partial results — the search phases poll the
//    deadline and unwind through the exception-safe shutdown machinery.
//    Every query is admitted one at a time through the same path (Submit,
//    SubmitCancellable); a batch is a loop of submissions, and queries
//    that share tokens share the cursors the first of them builds.
//  * Live snapshot hot-swap. Everything a query dereferences — snapshot,
//    searcher (partition indexes), neighbor index — is bundled in one
//    immutable ServingState resolved at ADMISSION time and pinned by the
//    query until it completes. SwapSnapshot builds a replacement state
//    off the serving path and flips the shared pointer between queries:
//    already-admitted queries finish bit-identically against the state
//    they were admitted under, later submissions see the new snapshot,
//    and the old snapshot is destroyed when its last in-flight query
//    drops the reference — no drain, no lock held across a search.
//  * Sharded scatter-gather (num_shards > 1). The set collection is
//    partitioned into N contiguous id ranges, the partitions of one
//    searcher (dict/embeddings/neighbor index replicated — shared pages
//    under the v4 mmap format); every query fans out across all shards
//    (shard 0 on the query's worker, the rest on a dedicated shard pool),
//    exchanges θlb mid-flight so any shard's proven bound prunes the
//    others, and merges the per-shard top-k lists deterministically.
//    Results are bit-identical to the N=1 engine; admission, deadlines,
//    cancellation and swaps keep their exact semantics (the coordinator
//    lives inside the ServingState, so a swap flips all shards
//    atomically).
//
// A search is single-threaded (KoiosSearcher runs inline on its caller);
// the only intra-query parallelism is the shard fan-out above, on its own
// pool of leaf tasks, so a worker never waits on sub-tasks of its own pool.
// At serving concurrency the cores are already busy with distinct queries.
#ifndef KOIOS_SERVE_QUERY_ENGINE_H_
#define KOIOS_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/serve/shard_coordinator.h"
#include "koios/serve/snapshot.h"
#include "koios/util/metric_registry.h"
#include "koios/util/status.h"
#include "koios/util/thread_pool.h"

namespace koios::serve {

struct EngineOptions {
  /// Worker threads = maximum concurrently RUNNING queries.
  size_t num_threads = 4;
  /// Admitted-but-waiting bound; a Submit arriving with the queue full is
  /// rejected with ResourceExhausted.
  size_t max_queue = 256;
  /// Byte budget for the neighbor index's shared cursor cache (applied via
  /// BatchedNeighborIndex::SetCursorCacheCapacity to the served index and
  /// to every index swapped in later; 0 = unbounded, and non-batched
  /// backends ignore it). A long-running engine should set this: the
  /// (token, α) cache otherwise grows with lifetime traffic.
  size_t cursor_cache_bytes = 0;

  /// Corpus shards, the paper's §VI partitions searched concurrently: the
  /// set collection is partitioned into this many contiguous id ranges,
  /// the partitions of one searcher, with one query fanned across all of
  /// them (shard 0 on the query's worker, the rest on a dedicated shard
  /// pool) and the per-shard top-k lists merged deterministically. The
  /// shards always exchange θlb mid-query, so a bound proven by any shard
  /// prunes the others. Dict, embeddings and the neighbor index stay
  /// shared (replicated) across shards. 1 = one partition over the whole
  /// collection; results are bit-identical at every N (hard gate in
  /// bench_shard_scaling). Clamped to the set count. Fixed for the
  /// engine's lifetime — hot swaps
  /// partition the NEW snapshot at the same N, flipping all shards
  /// atomically (they live inside the one ServingState pointer).
  size_t num_shards = 1;

  /// Completed queries slower than this get a report — the query's full
  /// span tree (when it was sampled by the trace recorder) plus
  /// SearchStats::ToString() — written to `slow_query_sink`. Zero
  /// disables. Reports are rate-limited to one per second so an
  /// overloaded engine logs a steady trickle, not a flood (the
  /// koios_slow_queries_total counter still ticks for every over-threshold
  /// query).
  std::chrono::milliseconds slow_query_threshold{0};
  /// Destination for slow-query reports; null = stderr.
  std::function<void(const std::string&)> slow_query_sink;
};

/// Monotone engine counters (snapshot; taken under the stats mutex).
struct EngineCounters {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t deadline_exceeded = 0;
  /// Fail-fast admissions: the estimated queue wait already exceeded the
  /// query's deadline budget, so it was rejected at the door instead of
  /// burning a queue slot to time out later.
  uint64_t rejected_wait_exceeds_deadline = 0;
  /// Queries aborted because their CancelToken fired (disconnected client)
  /// before they finished; partial work was discarded.
  uint64_t cancelled = 0;
  /// TrySwapFromRepository outcomes (SwapSnapshot counts as a success).
  uint64_t swaps_completed = 0;
  uint64_t swap_failures = 0;
  /// Completed queries over the slow-query threshold (counted even when
  /// the rate limiter suppressed the report itself).
  uint64_t slow_queries = 0;
};

/// Exponentially weighted moving average of a service time in seconds
/// (α = 0.2; the first sample seeds it directly; 0 when empty). This is the
/// overload governor's estimate of "how long does one query take right
/// now": a slow regime moves it within a handful of samples, where a
/// lifetime mean would average the whole history. Not thread-safe; the
/// engine updates and reads it under its stats mutex.
class LatencyEwma {
 public:
  void Record(double seconds) {
    seconds_ = seeded_ ? kAlpha * seconds + (1.0 - kAlpha) * seconds_ : seconds;
    seeded_ = true;
  }
  double seconds() const { return seconds_; }

 private:
  static constexpr double kAlpha = 0.2;
  double seconds_ = 0.0;
  bool seeded_ = false;
};

/// Cooperative cancellation for a submitted query: the network edge holds
/// the token and fires it when its client disconnects, so a query whose
/// answer nobody will read stops burning a worker at the next deadline
/// poll (the same coarse-cadence polls the deadline uses) and unwinds
/// through the poison-safe machinery — no partial state, clean kCancelled.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  const std::atomic<bool>* flag() const { return &cancelled_; }

 private:
  std::atomic<bool> cancelled_{false};
};

class QueryEngine {
 public:
  using Result = util::StatusOr<core::SearchResult>;

  /// Serves over caller-owned parts (both must outlive the engine).
  QueryEngine(const index::SetCollection* sets,
              const sim::SimilarityIndex* index,
              const EngineOptions& options = {});

  /// Serves over (and keeps alive) a shared snapshot.
  explicit QueryEngine(std::shared_ptr<const Snapshot> snapshot,
                       const EngineOptions& options = {});

  /// Drains: blocks until every admitted query finished.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits one query. The future resolves to the SearchResult, or to
  /// InvalidArgument (k = 0 or α outside (0, 1], see
  /// core::ValidateSearchParams; refused before admission, never ran) /
  /// ResourceExhausted (rejected at the door, never ran) /
  /// DeadlineExceeded (expired waiting or mid-execution; any partial work
  /// was discarded) / Internal (the search threw — bad_alloc, a faulty
  /// similarity backend — and the status carries the exception's
  /// message; the future never holds an exception). Rejections carry a
  /// retry_after_ms() hint derived from the queue depth and the EWMA
  /// service time, so callers back off for roughly the time the engine
  /// needs to drain rather than retrying blind. A query whose ESTIMATED
  /// queue wait already exceeds its deadline budget is failed fast with
  /// DeadlineExceeded at admission — it would only have occupied a queue
  /// slot to time out later. Without a deadline argument the query has
  /// none. Thread-safe.
  std::future<Result> Submit(std::vector<TokenId> query,
                             const core::SearchParams& params);
  std::future<Result> Submit(std::vector<TokenId> query,
                             const core::SearchParams& params,
                             std::chrono::milliseconds deadline);

  /// Submit with cooperative cancellation: same admission semantics, plus
  /// a token the caller may fire at any time (before or while the query
  /// runs). A cancelled query resolves to kCancelled with zero partial
  /// results; a token fired after completion is a harmless no-op. The
  /// token is also usable from other threads than the submitter.
  ///
  /// A search that throws is answered kInternal, as in Submit.
  ///
  /// `on_complete` (may be empty) runs exactly once per submission, after
  /// the returned future is ready — for every outcome: an answer, a
  /// deadline, a cancellation, a failed search, and an admission
  /// rejection. It runs on the engine worker that finished the query, or
  /// on the calling thread, before SubmitCancellable returns, when
  /// admission rejects the query. By then the query's admission slot is
  /// already free. It must be cheap and must not throw: it runs on a
  /// worker between queries. The network edge uses it to wake its event
  /// loop.
  struct Submission {
    std::future<Result> future;
    std::shared_ptr<CancelToken> cancel;
  };
  Submission SubmitCancellable(std::vector<TokenId> query,
                               const core::SearchParams& params,
                               std::chrono::milliseconds deadline,
                               std::function<void()> on_complete);

  /// Atomically points the engine at a rebuilt repository between queries
  /// (reindex, corpus update) WITHOUT draining: the replacement serving
  /// state — searcher with partition indexes, cursor-cache budget — is
  /// built here off the serving path, then flipped. Queries admitted
  /// before the flip complete against the snapshot they were admitted
  /// under (bit-identical to an un-swapped engine); queries submitted
  /// after it run against `snapshot`. The old snapshot is released when
  /// its last in-flight query finishes. Thread-safe; concurrent swappers
  /// serialize on the flip (last one wins).
  void SwapSnapshot(std::shared_ptr<const Snapshot> snapshot);

  /// Failure-hardened reload: loads `path` (io::LoadRepository under
  /// Snapshot::Load — every corruption class comes back as a clean error
  /// Status) and hot-swaps to it ONLY if the whole load + state build
  /// succeeded. On ANY failure the engine keeps serving its current
  /// snapshot untouched — a corrupt or half-written repository file can
  /// never take down a serving process, only fail its reload. v4 mmap
  /// files are verified EAGERLY here, so a corrupt bulk arena fails the
  /// swap instead of surfacing mid-query later. Thread-safe, same flip
  /// semantics as SwapSnapshot.
  util::Status TrySwapFromRepository(const std::string& path);

  /// The snapshot currently being served (null when the engine was
  /// constructed over borrowed parts and never swapped).
  std::shared_ptr<const Snapshot> snapshot() const;

  size_t num_threads() const { return pool_.num_threads(); }
  /// ACTUAL shard count of the current serving state (options.num_shards
  /// clamped to the snapshot's set count; 1 for an unsharded engine).
  size_t num_shards() const;

  EngineCounters counters() const;
  /// Aggregate of every completed query's SearchStats (tuples, candidates,
  /// filter hits, exact matchings) — the engine-lifetime totals the metric
  /// registry exposes, replacing per-call ad-hoc stat plumbing.
  core::SearchStats search_stats() const;
  /// Execution time of every successful query, in FineLatencyBuckets():
  /// fixed memory, read without a lock. The count of a query is visible
  /// once its future is ready.
  const util::Histogram& latency() const { return latency_; }
  /// Shard `shard`'s own wall time inside the fan-out, one observation per
  /// completed query; an empty histogram for out-of-range shards. At
  /// num_shards = 1, shard 0 mirrors latency() minus the coordinator's
  /// overhead.
  const util::Histogram& shard_latency(size_t shard) const;
  /// Aggregate SearchStats of shard `shard` across completed queries —
  /// per-shard tuples/candidates/phase timers ("cursor_build",
  /// "refinement", "postprocess") for the metrics layer and the scale
  /// suite's per-shard breakdowns.
  core::SearchStats shard_search_stats(size_t shard) const;
  /// EWMA service time in seconds (0 until the first query completes) —
  /// the overload governor's "how long does one query take right now".
  double LatencyEwmaSeconds() const;
  /// Shard `shard`'s EWMA execution time in seconds (0 before its first
  /// completed query, and for out-of-range shards).
  double ShardLatencyEwmaSeconds(size_t shard) const;
  /// The overload governor's CURRENT estimate of how long a query
  /// submitted right now would wait before a worker picks it up. 0 while
  /// a worker is free — and, by design, 0 on a COLD engine (no completed
  /// query yet means no EWMA): the governor never fail-fast rejects
  /// without evidence, so a cold daemon cannot shed its first burst on a
  /// bogus estimate. Exposed for metrics and admission introspection.
  double EstimatedQueueWaitSeconds() const;

 private:
  struct Ticket {
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
  };

  /// Everything a query dereferences while it runs, bundled immutably so
  /// a hot swap is one shared_ptr flip — INCLUDING every shard: the
  /// coordinator (and the searcher with every shard's index inside it)
  /// lives here, so a swap replaces all N shards atomically; a query can
  /// never see shard 0 of one snapshot and shard 1 of another. A query
  /// pins the state it was ADMITTED under (captured into its task), which
  /// is what makes the swap safe with queries in flight: nothing a running
  /// search touches is ever mutated or freed underneath it.
  struct ServingState {
    ServingState(std::shared_ptr<const Snapshot> snap,
                 const index::SetCollection* sets,
                 const sim::SimilarityIndex* index,
                 const ShardOptions& shard_options)
        : snapshot(std::move(snap)),
          coordinator(sets, index, shard_options,
                      snapshot != nullptr ? snapshot->postings() : nullptr) {}

    std::shared_ptr<const Snapshot> snapshot;  // null for borrowed parts
    ShardCoordinator coordinator;  // holds the searcher and shard indexes
  };
  using StatePtr = std::shared_ptr<const ServingState>;

  /// Builds a serving state (partition indexes, cursor cache budget).
  /// Runs off the serving path — existing queries keep executing against
  /// the current state meanwhile.
  StatePtr MakeState(std::shared_ptr<const Snapshot> snapshot,
                     const index::SetCollection* sets,
                     const sim::SimilarityIndex* index) const;
  StatePtr CurrentState() const;

  /// Per-query trace context, captured at admission (the submitter's
  /// ambient trace — the net edge's request trace — or a fresh sampling
  /// decision for direct callers) and carried into the worker so the
  /// queue wait and execution record under the right parent.
  struct TraceTask {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    int64_t enqueue_ns = 0;
  };
  TraceTask CaptureTrace() const;

  Ticket MakeTicket(std::chrono::milliseconds deadline) const;
  static bool TicketExpired(const Ticket& ticket);
  /// The shard options every serving state is built with.
  ShardOptions MakeShardOptions() const;
  /// The overload governor's per-query service-time estimate (seconds).
  /// Unsharded: the query EWMA. Sharded: the SLOWEST shard's EWMA — a
  /// query is only done when its slowest shard is, so a blended average
  /// would understate the drain rate whenever shards are imbalanced.
  /// Falls back to the query EWMA before any shard has reported.
  /// Requires stats_mutex_ held.
  double GovernorEwmaSecondsLocked() const;
  /// Overload-governor estimate of how long a query admitted as number
  /// `admitted` (pre-increment in_flight_ value) will wait before a worker
  /// picks it up: (queued ahead of it + 1) × EWMA service time / workers.
  /// 0 while a worker is free or before any query completed (no EWMA yet).
  double EstimatedQueueWaitSeconds(size_t admitted) const;
  /// Worker-side execution against the query's admission-time state.
  /// Deadline aborts become DeadlineExceeded statuses; anything else a
  /// search throws (bad_alloc, a faulty similarity backend) propagates to
  /// the task in Enqueue, which answers it kInternal.
  Result Execute(const ServingState& state, const std::vector<TokenId>& query,
                 core::SearchParams params, const Ticket& ticket,
                 const CancelToken* cancel, const TraceTask& trace);
  /// Emits the rate-limited slow-query report (span tree + stats).
  void MaybeLogSlowQuery(const std::vector<TokenId>& query,
                         const core::SearchParams& params,
                         const core::SearchStats& stats,
                         double elapsed_seconds, uint64_t trace_id);
  /// The one admission path: counts the submission, applies the queue
  /// bound and the fail-fast deadline check, then queues the query against
  /// the current serving state.
  std::future<Result> Enqueue(std::vector<TokenId> query,
                              const core::SearchParams& params, Ticket ticket,
                              std::shared_ptr<CancelToken> cancel = nullptr,
                              std::function<void()> on_complete = nullptr);

  EngineOptions options_;
  // The hot-swappable serving state; reads and the swap flip are brief
  // critical sections (never held across a search).
  mutable std::mutex state_mutex_;
  StatePtr state_;

  // Admitted (queued or running) queries, for the queue bound.
  std::atomic<size_t> in_flight_{0};

  // Steady-clock ns of the last emitted slow-query report (rate limiter).
  std::atomic<int64_t> last_slow_log_ns_{0};

  // Latency histograms are lock-free; everything else under the mutex.
  // Per-shard series are sized to the REQUESTED shard count (a snapshot
  // with fewer sets than shards reports into the low indexes only); a
  // deque, because a Histogram holds atomics and must not move.
  util::Histogram latency_{util::FineLatencyBuckets()};
  std::deque<util::Histogram> shard_latency_;
  mutable std::mutex stats_mutex_;
  EngineCounters counters_;
  core::SearchStats search_stats_;  // merged per completed query
  LatencyEwma latency_ewma_;
  std::vector<LatencyEwma> shard_ewma_;
  std::vector<core::SearchStats> shard_stats_;

  // The shard fan-out pool (created only at num_shards > 1): shards
  // 1..N-1 of every in-flight query run here while shard 0 runs on the
  // query's own worker, so it is sized (N-1) × num_threads to keep every
  // shard of every concurrently running query on a core. Declared BEFORE
  // pool_ (and destroyed after it): query workers block on shard futures,
  // so the shard pool must outlive them.
  std::unique_ptr<util::ThreadPool> shard_pool_;

  // LAST member: its destructor joins workers that still touch the stats
  // mutex and counters above, so they must outlive it.
  util::ThreadPool pool_;
};

}  // namespace koios::serve

#endif  // KOIOS_SERVE_QUERY_ENGINE_H_
