#include "koios/serve/query_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <utility>

#include <cstdio>

#include "koios/sim/batched_neighbor_index.h"
#include "koios/util/fault_injector.h"
#include "koios/util/timer.h"
#include "koios/util/trace_recorder.h"

namespace koios::serve {

namespace {

/// Retry hint in whole milliseconds; never 0 for a positive wait (a 0 hint
/// reads as "no hint" on the Status).
int64_t HintMs(double wait_seconds) {
  return std::max<int64_t>(1, std::llround(wait_seconds * 1e3));
}

/// At most one slow-query report per this interval, so an overloaded
/// engine logs a steady trickle, not a flood.
constexpr std::chrono::nanoseconds kSlowQueryLogInterval =
    std::chrono::seconds(1);

}  // namespace

ShardOptions QueryEngine::MakeShardOptions() const {
  ShardOptions shard_options;
  shard_options.num_shards = std::max<size_t>(1, options_.num_shards);
  return shard_options;
}

QueryEngine::StatePtr QueryEngine::MakeState(
    std::shared_ptr<const Snapshot> snapshot, const index::SetCollection* sets,
    const sim::SimilarityIndex* index) const {
  auto state = std::make_shared<ServingState>(std::move(snapshot), sets, index,
                                              MakeShardOptions());
  if (options_.cursor_cache_bytes > 0) {
    if (const auto* cache =
            dynamic_cast<const sim::BatchedNeighborIndex*>(index)) {
      cache->SetCursorCacheCapacity(options_.cursor_cache_bytes);
    }
  }
  return state;
}

QueryEngine::StatePtr QueryEngine::CurrentState() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

namespace {

/// Shard fan-out pool: shards 1..N-1 of up to num_threads concurrent
/// queries, each a single-threaded leaf task. Null at N = 1 — the fast
/// path never pays for threads it cannot use.
std::unique_ptr<util::ThreadPool> MakeShardPool(const EngineOptions& options) {
  if (options.num_shards <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(
      (options.num_shards - 1) * std::max<size_t>(1, options.num_threads));
}

/// One latency histogram per requested shard.
std::deque<util::Histogram> MakeShardLatency(const EngineOptions& options) {
  std::deque<util::Histogram> series;
  for (size_t i = 0; i < std::max<size_t>(1, options.num_shards); ++i) {
    series.emplace_back(util::FineLatencyBuckets());
  }
  return series;
}

}  // namespace

QueryEngine::QueryEngine(const index::SetCollection* sets,
                         const sim::SimilarityIndex* index,
                         const EngineOptions& options)
    : options_(options),
      state_(MakeState(nullptr, sets, index)),
      shard_latency_(MakeShardLatency(options)),
      shard_ewma_(std::max<size_t>(1, options.num_shards)),
      shard_stats_(std::max<size_t>(1, options.num_shards)),
      shard_pool_(MakeShardPool(options)),
      pool_(std::max<size_t>(1, options.num_threads)) {}

QueryEngine::QueryEngine(std::shared_ptr<const Snapshot> snapshot,
                         const EngineOptions& options)
    : options_(options),
      shard_latency_(MakeShardLatency(options)),
      shard_ewma_(std::max<size_t>(1, options.num_shards)),
      shard_stats_(std::max<size_t>(1, options.num_shards)),
      shard_pool_(MakeShardPool(options)),
      pool_(std::max<size_t>(1, options.num_threads)) {
  const Snapshot* raw = snapshot.get();
  state_ = MakeState(std::move(snapshot), &raw->sets(), raw->index());
}

QueryEngine::~QueryEngine() = default;  // pool_ drains admitted queries

void QueryEngine::SwapSnapshot(std::shared_ptr<const Snapshot> snapshot) {
  // An engine always serves SOMETHING; swapping to "no snapshot" is a
  // caller bug, not a supported transition (snapshot() being null is only
  // the borrowed-parts construction mode).
  assert(snapshot != nullptr);
  if (snapshot == nullptr) return;
  // Build the replacement state (shard inverted indexes, cache budget)
  // BEFORE taking the lock: in-flight and newly admitted queries keep
  // serving against the current state while the expensive part runs; only
  // the pointer flip itself is serialized.
  const Snapshot* raw = snapshot.get();
  StatePtr next = MakeState(std::move(snapshot), &raw->sets(), raw->index());
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = std::move(next);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++counters_.swaps_completed;
}

util::Status QueryEngine::TrySwapFromRepository(const std::string& path) {
  auto record_failure = [this](util::Status status) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.swap_failures;
    return status;
  };
  // Load first, flip last: until the very end of this function the engine
  // is still serving the old state, so every failure below degrades to
  // "the reload did not happen" rather than "serving stopped".
  //
  // Eager mmap verification: a lazy v4 load defers bulk-arena checksums
  // to first touch, which for a LIVE swap would mean corruption surfacing
  // mid-query on the new snapshot. A swap must adopt only a fully verified
  // file or keep the old one.
  util::StatusOr<std::shared_ptr<const Snapshot>> loaded = [&] {
    // Spans only under an ambient trace — the watcher starts one per swap.
    KOIOS_TRACE_SPAN("swap.load");
    return Snapshot::Load(path, /*verify=*/true);
  }();
  if (!loaded.ok()) return record_failure(loaded.status());
  // Chaos seam: a fault between the (successful) load and the flip models
  // a state build blowing up — the swap must fail closed.
  if (KOIOS_FAULTPOINT("engine.swap.build")) {
    return record_failure(util::Status::Internal(
        "injected snapshot state build fault (engine.swap.build)"));
  }
  std::shared_ptr<const Snapshot> snapshot = std::move(loaded).value();
  const Snapshot* raw = snapshot.get();
  StatePtr next;
  try {
    KOIOS_TRACE_SPAN("swap.state_build");
    next = MakeState(std::move(snapshot), &raw->sets(), raw->index());
  } catch (const std::exception& e) {
    return record_failure(util::Status::Internal(
        std::string("snapshot state build failed: ") + e.what()));
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = std::move(next);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++counters_.swaps_completed;
  return util::Status::OK();
}

std::shared_ptr<const Snapshot> QueryEngine::snapshot() const {
  return CurrentState()->snapshot;
}

size_t QueryEngine::num_shards() const {
  return CurrentState()->coordinator.num_shards();
}

QueryEngine::TraceTask QueryEngine::CaptureTrace() const {
  TraceTask trace;
  if (!util::TraceRecorder::Enabled()) return trace;
  util::TraceRecorder& rec = util::TraceRecorder::Instance();
  const util::TraceRecorder::ThreadContext ambient =
      util::TraceRecorder::Current();
  // A submitter with an ambient trace (the net edge's request trace) is
  // joined; a direct caller gets its own sampling decision.
  trace.trace_id =
      ambient.trace_id != 0 ? ambient.trace_id : rec.StartTrace();
  trace.parent_span = ambient.parent_span;
  if (trace.trace_id != 0) trace.enqueue_ns = rec.NowNs();
  return trace;
}

QueryEngine::Ticket QueryEngine::MakeTicket(
    std::chrono::milliseconds deadline) const {
  Ticket ticket;
  if (deadline.count() > 0) {
    ticket.deadline = std::chrono::steady_clock::now() + deadline;
    ticket.has_deadline = true;
  }
  return ticket;
}

bool QueryEngine::TicketExpired(const Ticket& ticket) {
  return ticket.has_deadline &&
         std::chrono::steady_clock::now() >= ticket.deadline;
}

double QueryEngine::GovernorEwmaSecondsLocked() const {
  if (options_.num_shards <= 1) return latency_ewma_.seconds();
  double slowest = 0.0;
  for (const LatencyEwma& ewma : shard_ewma_) {
    slowest = std::max(slowest, ewma.seconds());
  }
  return slowest > 0.0 ? slowest : latency_ewma_.seconds();
}

double QueryEngine::EstimatedQueueWaitSeconds(size_t admitted) const {
  const size_t workers = pool_.num_threads();
  if (admitted < workers) return 0.0;  // a worker is (about to be) free
  double ewma = 0.0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ewma = GovernorEwmaSecondsLocked();
  }
  if (ewma <= 0.0) return 0.0;  // nothing completed yet: no estimate
  // `admitted - workers` queries are queued ahead of this one; the pool
  // drains `workers` of them per EWMA period, and the query itself is the
  // +1 (its own wait ends when it STARTS, but the caller's retry hint
  // should cover a full drain-and-run).
  return static_cast<double>(admitted - workers + 1) * ewma /
         static_cast<double>(workers);
}

std::future<QueryEngine::Result> QueryEngine::Submit(
    std::vector<TokenId> query, const core::SearchParams& params) {
  return Enqueue(std::move(query), params, Ticket{});
}

std::future<QueryEngine::Result> QueryEngine::Submit(
    std::vector<TokenId> query, const core::SearchParams& params,
    std::chrono::milliseconds deadline) {
  return Enqueue(std::move(query), params, MakeTicket(deadline));
}

QueryEngine::Submission QueryEngine::SubmitCancellable(
    std::vector<TokenId> query, const core::SearchParams& params,
    std::chrono::milliseconds deadline, std::function<void()> on_complete) {
  Submission submission;
  submission.cancel = std::make_shared<CancelToken>();
  submission.future = Enqueue(std::move(query), params, MakeTicket(deadline),
                              submission.cancel, std::move(on_complete));
  return submission;
}

std::future<QueryEngine::Result> QueryEngine::Enqueue(
    std::vector<TokenId> query, const core::SearchParams& params,
    Ticket ticket, std::shared_ptr<CancelToken> cancel,
    std::function<void()> on_complete) {
  // A rejection is a future that is ready at once (Submit must never block
  // the caller, least of all to say "no"), so its callback runs here.
  auto reject = [&on_complete](util::Status status) {
    std::promise<Result> promise;
    promise.set_value(Result(std::move(status)));
    if (on_complete) on_complete();
    return promise.get_future();
  };
  // Parameters no search can run with are refused before admission.
  if (auto valid = core::ValidateSearchParams(params.k, params.alpha);
      !valid.ok()) {
    return reject(std::move(valid));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.submitted;
  }
  // fetch_add-then-check keeps the bound exact under concurrent submitters
  // (a plain load+add would let two of them both slip past the last slot).
  const size_t admitted = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= pool_.num_threads() + options_.max_queue) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // How long until the engine has drained enough to admit a retry: the
    // wait a query at the BACK of the full queue would see.
    const double wait = EstimatedQueueWaitSeconds(admitted);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.rejected_queue_full;
    }
    return reject(
        util::Status::ResourceExhausted(
            "query queue full (" + std::to_string(options_.max_queue) +
            " waiting + " + std::to_string(pool_.num_threads()) + " running)")
            .WithRetryAfterMs(HintMs(wait)));
  }
  if (ticket.has_deadline) {
    // Fail fast: if the estimated queue wait alone already eats the whole
    // deadline budget, admitting the query only spends a slot to time out
    // later — reject now, with the wait as the backoff hint. Conservative
    // by construction: with no EWMA yet (cold engine) or free workers the
    // estimate is 0 and nothing is ever rejected here.
    const double wait = EstimatedQueueWaitSeconds(admitted);
    if (wait > 0.0) {
      const double budget =
          std::chrono::duration<double>(ticket.deadline -
                                        std::chrono::steady_clock::now())
              .count();
      if (wait > budget) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++counters_.rejected_wait_exceeds_deadline;
        }
        return reject(
            util::Status::DeadlineExceeded(
                "estimated queue wait exceeds the query deadline")
                .WithRetryAfterMs(HintMs(wait)));
      }
    }
  }
  const TraceTask trace = CaptureTrace();
  StatePtr state = CurrentState();
  std::promise<Result> promise;
  std::future<Result> future = promise.get_future();
  // The task pins `state`: its snapshot/searcher/index stay alive and
  // untouched until this query completes, no matter how many hot swaps
  // happen while it waits in the queue.
  pool_.Submit([this, state = std::move(state), query = std::move(query),
                params, ticket, cancel = std::move(cancel), trace,
                promise = std::move(promise),
                on_complete = std::move(on_complete)]() mutable {
    // Execute absorbs deadline aborts; anything else (bad_alloc, a faulty
    // similarity backend) is answered kInternal here, so no exception
    // object crosses to the thread that reads the future.
    Result result = [&]() -> Result {
      try {
        return Execute(*state, query, params, ticket, cancel.get(), trace);
      } catch (const std::exception& e) {
        return util::Status::Internal(std::string("query failed: ") +
                                      e.what());
      } catch (...) {
        return util::Status::Internal(
            "query failed with a non-standard exception");
      }
    }();
    // The slot is released on every exit (a leaked slot would erode
    // admission capacity for good) and BEFORE the future is ready, so a
    // caller that submits again as soon as get() returns finds it free.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    promise.set_value(std::move(result));
    if (on_complete) on_complete();
  });
  return future;
}

QueryEngine::Result QueryEngine::Execute(const ServingState& state,
                                         const std::vector<TokenId>& query,
                                         core::SearchParams params,
                                         const Ticket& ticket,
                                         const CancelToken* cancel,
                                         const TraceTask& trace) {
  // Hop the submitter's trace onto this worker; the admission wait (from
  // Enqueue to pickup) is a span only measurable after the fact.
  util::TraceAdopt adopt(trace.trace_id, trace.parent_span);
  if (trace.trace_id != 0) {
    util::TraceRecorder& rec = util::TraceRecorder::Instance();
    rec.RecordManualSpan("serve.queue_wait", trace.trace_id, 0,
                         trace.parent_span, trace.enqueue_ns, rec.NowNs());
  }

  ShardCoordinator::QueryOptions qopts;
  qopts.has_deadline = ticket.has_deadline;
  qopts.deadline = ticket.deadline;
  qopts.cancel_flag = cancel != nullptr ? cancel->flag() : nullptr;
  try {
    // Expired or cancelled while queued: reject without running.
    if ((cancel != nullptr && cancel->cancelled()) || TicketExpired(ticket)) {
      throw core::SearchAborted{};
    }
    util::WallTimer timer;
    core::SearchResult result;
    ShardCoordinator::QueryReport report;
    {
      util::TraceSpan execute_span("serve.execute");
      if (execute_span.active() && ticket.has_deadline) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            ticket.deadline - std::chrono::steady_clock::now());
        execute_span.set_arg("deadline_ms_left",
                             left.count() > 0 ? left.count() : 0);
      }
      // Shard tasks hop threads: hand them this thread's ambient trace so
      // their shard.execute spans parent under serve.execute.
      const util::TraceRecorder::ThreadContext ambient =
          util::TraceRecorder::Current();
      qopts.trace_id = ambient.trace_id;
      qopts.trace_parent = ambient.parent_span;
      // At num_shards = 1 this is exactly the pre-shard execution path.
      result = state.coordinator.Execute(query, params, qopts,
                                         shard_pool_.get(), &report);
    }
    const double elapsed = timer.ElapsedSeconds();
    const size_t shards =
        std::min(report.shard_seconds.size(), shard_latency_.size());
    latency_.Observe(elapsed);
    for (size_t i = 0; i < shards; ++i) {
      shard_latency_[i].Observe(report.shard_seconds[i]);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.completed;
      search_stats_.Merge(result.stats);
      latency_ewma_.Record(elapsed);
      for (size_t i = 0; i < shards; ++i) {
        shard_ewma_[i].Record(report.shard_seconds[i]);
        shard_stats_[i].Merge(report.shard_stats[i]);
      }
    }
    MaybeLogSlowQuery(query, params, result.stats, elapsed, trace.trace_id);
    return result;
  } catch (const core::SearchAborted&) {
    // Clean rejection: the phases unwound through the poison-safe shutdown
    // machinery; nothing partial escapes. A fired token means the CALLER
    // walked away (client disconnect) — kCancelled, no retry hint, there
    // is nobody to retry. Otherwise the deadline elapsed; the retry hint
    // is one EWMA service period — "come back when a typical query would
    // have fit".
    if (cancel != nullptr && cancel->cancelled()) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.cancelled;
      return Result(util::Status::Cancelled(
          "query cancelled by the caller; partial results discarded"));
    }
    double ewma = 0.0;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.deadline_exceeded;
      ewma = latency_ewma_.seconds();
    }
    auto status = util::Status::DeadlineExceeded(
        "query deadline elapsed; partial results discarded");
    if (ewma > 0.0) return Result(std::move(status).WithRetryAfterMs(HintMs(ewma)));
    return Result(std::move(status));
  }
}

void QueryEngine::MaybeLogSlowQuery(const std::vector<TokenId>& query,
                                    const core::SearchParams& params,
                                    const core::SearchStats& stats,
                                    double elapsed_seconds,
                                    uint64_t trace_id) {
  if (options_.slow_query_threshold.count() <= 0) return;
  const double threshold_seconds =
      std::chrono::duration<double>(options_.slow_query_threshold).count();
  if (elapsed_seconds < threshold_seconds) return;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.slow_queries;
  }
  // Rate limit: one report per interval, claimed with a CAS so concurrent
  // slow finishers elect exactly one reporter.
  const int64_t interval_ns = kSlowQueryLogInterval.count();
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  int64_t last = last_slow_log_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now_ns - last < interval_ns) return;
  if (!last_slow_log_ns_.compare_exchange_strong(last, now_ns,
                                                 std::memory_order_relaxed)) {
    return;
  }

  char header[160];
  std::snprintf(header, sizeof(header),
                "slow query: %.1f ms (threshold %lld ms), %zu tokens, k=%zu, "
                "alpha=%.3f\n",
                elapsed_seconds * 1e3,
                static_cast<long long>(options_.slow_query_threshold.count()),
                query.size(), params.k, static_cast<double>(params.alpha));
  std::string report = header;
  if (trace_id != 0) {
    report += util::TraceRecorder::Instance().RenderSpanTree(trace_id);
  } else {
    report +=
        "(no span tree: query was not sampled by the trace recorder)\n";
  }
  report += stats.ToString();
  if (options_.slow_query_sink) {
    options_.slow_query_sink(report);
  } else {
    std::fprintf(stderr, "%s", report.c_str());
  }
}

EngineCounters QueryEngine::counters() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return counters_;
}

core::SearchStats QueryEngine::search_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return search_stats_;
}

const util::Histogram& QueryEngine::shard_latency(size_t shard) const {
  static const util::Histogram* const kEmpty =
      new util::Histogram(util::FineLatencyBuckets());
  return shard < shard_latency_.size() ? shard_latency_[shard] : *kEmpty;
}

core::SearchStats QueryEngine::shard_search_stats(size_t shard) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (shard >= shard_stats_.size()) return core::SearchStats{};
  return shard_stats_[shard];
}

double QueryEngine::LatencyEwmaSeconds() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return latency_ewma_.seconds();
}

double QueryEngine::ShardLatencyEwmaSeconds(size_t shard) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return shard < shard_ewma_.size() ? shard_ewma_[shard].seconds() : 0.0;
}

double QueryEngine::EstimatedQueueWaitSeconds() const {
  return EstimatedQueueWaitSeconds(in_flight_.load(std::memory_order_acquire));
}

}  // namespace koios::serve
