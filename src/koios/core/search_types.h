// Parameter and result types of the Koios top-k semantic overlap search.
#ifndef KOIOS_CORE_SEARCH_TYPES_H_
#define KOIOS_CORE_SEARCH_TYPES_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <vector>

#include "koios/core/stats.h"
#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::core {

/// θlb shared across searched partitions and shards (paper §VI: "all
/// partitions share a global θlb that is the maximum of the θlb").
/// Monotone non-decreasing maximum of published values. Besides pruning, it
/// drives the stream-feedback loop: refinement derives its stop similarity
/// τ = (θlb − ε) / |Q| from it, so it is published from refinement (greedy
/// lower bounds) as early as possible, not only from post-processing.
/// Atomic because the shard coordinator's concurrent shard searches share
/// one.
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

/// Thrown by the search phases when a per-query deadline elapses or the
/// caller cancels (see SearchContext). A search runs on the calling thread
/// and keeps its state on that frame, so an aborted query leaves no shared
/// state behind — the serve::QueryEngine catches this and turns it into a
/// clean DeadlineExceeded rejection with no partial results.
struct SearchAborted : public std::exception {
  const char* what() const noexcept override {
    return "koios: search aborted (deadline exceeded or cancelled)";
  }
};

/// Per-query execution context, threaded through every search phase
/// (searcher → edge cache → refinement → post-processing). It bundles
/// exactly the state that must be PER QUERY for concurrent searches over
/// one shared repository snapshot to be correct:
///
///  * the cross-partition θlb (GlobalThreshold), which a caller (the shard
///    coordinator) may point at one threshold shared by several searches;
///  * deadline / cancellation: phases poll Cancelled() at coarse cadences
///    (every few dozen stream tuples, every exact matching) and throw
///    SearchAborted.
///
/// A SearchContext is single-use per Search call (the searcher rearms the
/// members on entry); reuse across sequential searches is fine.
class SearchContext {
 public:
  SearchContext() = default;

  GlobalThreshold& global_theta() {
    return shared_theta_ != nullptr ? *shared_theta_ : global_theta_;
  }

  /// Points this context's θlb at an EXTERNAL threshold shared by several
  /// concurrently running searches — the cross-shard generalization of the
  /// paper's §VI partition rule (every shard's refinement publishes into
  /// one query-global maximum and derives its stop similarity from it).
  /// The attached threshold is NOT reset by
  /// BeginSearch: its owner (the shard coordinator) resets it exactly once
  /// per query, before any shard starts, so a late-starting shard cannot
  /// wipe the publications of an earlier one. Null detaches (back to the
  /// private per-context threshold). The pointee must outlive every search
  /// using this context.
  void AttachSharedTheta(GlobalThreshold* shared) { shared_theta_ = shared; }

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

  /// Called on entry to every KoiosSearcher search: rearms the private
  /// θlb. A shared (attached) θlb is deliberately left alone — see
  /// AttachSharedTheta.
  void BeginSearch() {
    if (shared_theta_ == nullptr) global_theta_.Reset();
  }

 private:
  GlobalThreshold global_theta_;
  GlobalThreshold* shared_theta_ = nullptr;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
};

/// Per-query search parameters. Filter toggles exist for the ablation
/// benchmarks; all default to the paper's configuration (everything on).
struct SearchParams {
  size_t k = 10;
  Score alpha = 0.8;

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
  /// θlb stream feedback (§IV–VI): refinement stops pulling the token
  /// stream once no unseen set can reach the top-k (τ = (θlb − ε) / |Q|)
  /// instead of draining it to α, and the stream produces nothing past
  /// that point. Exact — survivors keep the stop similarity as upper-bound
  /// slack and exact matching completes any missing below-τ edges on
  /// demand — but only engages when the index exposes its
  /// SimilarityFunction (SimilarityIndex::similarity) and streams exact
  /// neighbors; off = the drain-to-α path, kept for the ablation
  /// benchmarks.
  bool use_stream_feedback = true;

  /// Compute the exact SO of every reported result set even when the
  /// No-EM filter certified membership without verification. Needed for
  /// exact cross-partition merging; counted separately in the stats.
  bool verify_result_scores = true;
};

/// The rules every query's k and α must meet before a search runs: k ≥ 1
/// and α in (0, 1] (NaN fails). KoiosSearcher only asserts them, and at
/// k = 0 the top-k list reads past an empty set, so every entry point that
/// takes parameters from outside the program checks them here first: both
/// wire dialects, serve::QueryEngine admission and koios_cli.
inline util::Status ValidateSearchParams(size_t k, Score alpha) {
  if (k == 0) return util::Status::InvalidArgument("k must be positive");
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    return util::Status::InvalidArgument("alpha must be in (0, 1]");
  }
  return util::Status::OK();
}

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
