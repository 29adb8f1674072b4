// Parameter and result types of the Koios top-k semantic overlap search.
#ifndef KOIOS_CORE_SEARCH_TYPES_H_
#define KOIOS_CORE_SEARCH_TYPES_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <vector>

#include "koios/core/stats.h"
#include "koios/util/types.h"

namespace koios::core {

/// θlb shared across concurrently searched partitions (paper §VI: "all
/// partitions share a global θlb that is the maximum of the θlb").
/// Monotone non-decreasing maximum of published values. Besides pruning, it
/// drives the stream-feedback loop: the searcher derives the producer's
/// stop similarity τ = (θlb − ε) / |Q| from it, so it is published from
/// refinement (greedy lower bounds) as early as possible, not only from
/// post-processing.
class GlobalThreshold {
 public:
  void Publish(Score theta) {
    Score current = value_.load(std::memory_order_relaxed);
    while (theta > current &&
           !value_.compare_exchange_weak(current, theta,
                                         std::memory_order_relaxed)) {
    }
  }
  Score Get() const { return value_.load(std::memory_order_relaxed); }

  /// Back to 0 so a caller-owned SearchContext can host another search.
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<Score> value_{0.0};
};

/// Aggregates the per-consumer stream-stop declarations of the feedback
/// loop. Each refinement consumer, on deciding it needs no tuple below a
/// similarity s (θlb rules out unseen sets AND its surviving candidates'
/// bounds are tight enough — see RefinementPhase::Run), publishes s here
/// exactly once. The producer may withhold tuples below a similarity only
/// once EVERY consumer has declared one, and then only below the minimum —
/// a consumer that never declares (it needs the full α-drain) keeps the
/// producer running, which is what makes the stop exact for all consumers.
class StreamStopController {
 public:
  explicit StreamStopController(size_t num_consumers)
      : remaining_(num_consumers) {}

  /// Consumer declaration: "I will never need a tuple with sim < s".
  /// Call at most once per consumer.
  void PublishConsumerStop(Score s) {
    Score current = min_stop_.load(std::memory_order_relaxed);
    while (s < current &&
           !min_stop_.compare_exchange_weak(current, s,
                                            std::memory_order_relaxed)) {
    }
    remaining_.fetch_sub(1, std::memory_order_release);
  }

  /// Producer poll: the minimum declared stop once every consumer has
  /// declared one, 0 (= keep producing) before that.
  Score ProducerStop() const {
    if (remaining_.load(std::memory_order_acquire) > 0) return 0.0;
    return min_stop_.load(std::memory_order_relaxed);
  }

  /// Rearms for a new search with `num_consumers` declarers.
  void Reset(size_t num_consumers) {
    min_stop_.store(1.0, std::memory_order_relaxed);
    remaining_.store(num_consumers, std::memory_order_release);
  }

 private:
  std::atomic<size_t> remaining_;
  std::atomic<Score> min_stop_{1.0};
};

/// Thrown by the search phases when a per-query deadline elapses or the
/// caller cancels (see SearchContext). The search path is exception-safe
/// (the EdgeCache is poison-sealed and in-flight partition tasks joined on
/// unwind), so an aborted query leaves no shared state behind — the
/// serve::QueryEngine catches this and turns it into a clean
/// DeadlineExceeded rejection with no partial results.
struct SearchAborted : public std::exception {
  const char* what() const noexcept override {
    return "koios: search aborted (deadline exceeded or cancelled)";
  }
};

/// Per-query execution context, threaded through every search phase
/// (searcher → token-stream producer → refinement → post-processing).
/// It bundles exactly the state that must be PER QUERY for concurrent
/// searches over one shared repository snapshot to be correct:
///
///  * the cross-partition θlb (GlobalThreshold) and the θlb→producer
///    stream-feedback aggregation (StreamStopController) — previously
///    locals of KoiosSearcher::Search, hoisted here so the whole query
///    path is reentrant and a caller (the serve engine) can observe them;
///  * deadline / cancellation: phases poll Cancelled() at coarse cadences
///    (every few dozen stream tuples, every exact-matching batch) and
///    throw SearchAborted, unwinding through the search's existing
///    poison-safe shutdown machinery.
///
/// A SearchContext is single-use per Search call (the searcher rearms the
/// members on entry); reuse across sequential searches is fine.
class SearchContext {
 public:
  SearchContext() = default;

  GlobalThreshold& global_theta() {
    return shared_theta_ != nullptr ? *shared_theta_ : global_theta_;
  }
  StreamStopController& stop_controller() { return stop_controller_; }

  /// Points this context's θlb at an EXTERNAL threshold shared by several
  /// concurrently running searches — the cross-shard generalization of the
  /// paper's §VI partition rule (every shard's refinement publishes into
  /// one query-global maximum, and every shard's producer derives its stop
  /// similarity from it). The attached threshold is NOT reset by
  /// BeginSearch: its owner (the shard coordinator) resets it exactly once
  /// per query, before any shard starts, so a late-starting shard cannot
  /// wipe the publications of an earlier one. Null detaches (back to the
  /// private per-context threshold). The pointee must outlive every search
  /// using this context.
  void AttachSharedTheta(GlobalThreshold* shared) { shared_theta_ = shared; }
  bool has_shared_theta() const { return shared_theta_ != nullptr; }

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  bool Cancelled() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Throws SearchAborted when Cancelled(). The poll is a relaxed atomic
  /// load plus (with a deadline) one clock read — cheap enough for the
  /// per-batch cadences the phases use.
  void CheckCancelled() const {
    if (Cancelled()) throw SearchAborted{};
  }

  /// Called by KoiosSearcher::Search on entry: rearms the per-query
  /// machinery for `num_consumers` refinement partitions. A shared
  /// (attached) θlb is deliberately left alone — see AttachSharedTheta.
  void BeginSearch(size_t num_consumers) {
    if (shared_theta_ == nullptr) global_theta_.Reset();
    stop_controller_.Reset(num_consumers);
  }

  /// Trace handle for the sampled-query profiler (util::TraceRecorder):
  /// KoiosSearcher::Search stashes the caller's ambient trace here so
  /// phase work fanned onto pool threads (partition tasks, EM batches)
  /// can adopt it and parent their spans correctly. Zero = not sampled.
  void set_trace(uint64_t trace_id, uint64_t parent_span) {
    trace_id_ = trace_id;
    trace_parent_ = parent_span;
  }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t trace_parent() const { return trace_parent_; }

 private:
  GlobalThreshold global_theta_;
  GlobalThreshold* shared_theta_ = nullptr;
  StreamStopController stop_controller_{0};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t trace_parent_ = 0;
};

/// Per-query search parameters. Filter toggles exist for the ablation
/// benchmarks; all default to the paper's configuration (everything on).
struct SearchParams {
  size_t k = 10;
  Score alpha = 0.8;
  /// Worker threads for parallel exact matching during post-processing and
  /// for parallel partition search.
  size_t num_threads = 1;

  // --- ablation toggles -------------------------------------------------
  /// iUB-Filter (refinement, §V).
  bool use_iub_filter = true;
  /// True: the lazy §V filter, which checks a candidate's upper bound when
  /// a posting walk touches it, at the feedback stop check and in the
  /// final sweep. False: every candidate's upper bound is re-checked on
  /// every stream tuple (the "naive" update strategy §V argues against),
  /// the scan bench_ablation_filters compares against. Both prune the
  /// same sets.
  bool use_bucket_index = true;
  /// No-EM filter (post-processing, Lemma 7).
  bool use_no_em_filter = true;
  /// Exact-matching early termination (post-processing, Lemma 8).
  bool use_em_early_termination = true;
  /// θlb→producer stream feedback (§IV–VI): refinement publishes its
  /// running θlb back to the token-stream producer, which stops
  /// materializing once no unseen set can reach the top-k
  /// (τ = (θlb − ε) / |Q|) instead of draining to α. Exact — survivors
  /// keep the stop similarity as upper-bound slack and exact matching
  /// completes any missing below-τ edges on demand — but only engages when
  /// the index exposes its SimilarityFunction (SimilarityIndex::similarity);
  /// off = the drain-to-α path, kept for the ablation benchmarks.
  bool use_stream_feedback = true;
  /// Producer lead (in stream tuples) for OVERLAPPED feedback searches:
  /// the producer thread stays within this many tuples of the slowest
  /// consuming partition instead of free-running, so a slow consumer
  /// still gets its stop similarity declared before the stream drains to
  /// α (the production-race fix; serial/inline modes are naturally paced
  /// and ignore this). 0 restores the free-running producer. Results are
  /// identical either way — pacing changes only how far ahead production
  /// runs, never what is produced.
  size_t stream_producer_lead = 1024;
  /// Adaptive survivor budget for the feedback stop (ROADMAP follow-up).
  /// The stop's work-balance condition tolerates at most B survivors whose
  /// upper bounds the stop would freeze above θlb (each may cost one exact
  /// matching in post-processing). Fixed policy (default): B = max(32, 4k).
  /// Adaptive policy (this knob): a rent-to-buy rule — strand at most as
  /// much estimated EM work as the streaming work already spent, with one
  /// EM costed at `adaptive_em_cost_tuples` stream tuples. Because both
  /// sides scale with the per-tuple cost, the rule needs no clock or
  /// machine constant: B = max(32, tuples_consumed / ratio). Early in the
  /// stream the budget is tight (stopping is cheap to regret); the longer
  /// the drain runs, the more EMs stopping is allowed to strand.
  /// Exactness is untouched either way — the budget only delays the stop.
  bool use_adaptive_survivor_budget = false;
  /// Estimated cost of one stranded exact matching, expressed in stream
  /// tuples (see use_adaptive_survivor_budget). Lower = EMs believed
  /// cheap = looser budget = earlier stops.
  double adaptive_em_cost_tuples = 64.0;

  /// Compute the exact SO of every reported result set even when the
  /// No-EM filter certified membership without verification. Needed for
  /// exact cross-partition merging; counted separately in the stats.
  bool verify_result_scores = true;
};

/// One result entry: a set and its semantic overlap.
struct ResultEntry {
  SetId set = kInvalidSet;
  Score score = 0.0;
  /// True if `score` is the exact SO; false if it is the certified lower
  /// bound of a set admitted by the No-EM filter without verification.
  bool exact = true;
};

struct SearchResult {
  /// Top-k sets in non-increasing score order (may hold fewer than k
  /// entries when fewer candidates exist).
  std::vector<ResultEntry> topk;
  SearchStats stats;

  /// θk of the result: smallest score in the list (0 if empty).
  Score KthScore() const {
    return topk.empty() ? 0.0 : topk.back().score;
  }
};

}  // namespace koios::core

#endif  // KOIOS_CORE_SEARCH_TYPES_H_
