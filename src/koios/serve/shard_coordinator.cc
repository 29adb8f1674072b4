#include "koios/serve/shard_coordinator.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "koios/util/timer.h"
#include "koios/util/trace_recorder.h"

namespace koios::serve {

std::vector<ShardRange> ShardRanges(size_t set_count, size_t num_shards) {
  const size_t n =
      std::clamp<size_t>(num_shards, 1, std::max<size_t>(1, set_count));
  std::vector<ShardRange> ranges(n);
  for (size_t i = 0; i < n; ++i) {
    ranges[i] = {static_cast<SetId>(set_count * i / n),
                 static_cast<SetId>(set_count * (i + 1) / n)};
  }
  return ranges;
}

namespace {

/// Each shard's ranked index: shard 0 on the calling thread, the others on
/// at most min(N − 1, hardware threads) short-lived threads that take the
/// shards in turn. A build failure (bad_alloc) is rethrown here once every
/// thread has joined.
std::vector<index::InvertedIndex> BuildShardIndexes(
    const index::SetCollection& sets, const std::vector<ShardRange>& ranges) {
  std::vector<index::InvertedIndex> built(ranges.size());
  std::atomic<size_t> next{1};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto build = [&](size_t i) {
    try {
      std::vector<SetId> members(ranges[i].end - ranges[i].first);
      std::iota(members.begin(), members.end(), ranges[i].first);
      built[i] = index::InvertedIndex(sets, members);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
    }
  };
  const size_t helpers =
      std::min<size_t>(ranges.size() - 1,
                       std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < ranges.size();) build(i);
    });
  }
  build(0);
  for (std::thread& thread : threads) thread.join();
  if (error != nullptr) std::rethrow_exception(error);
  return built;
}

}  // namespace

ShardCoordinator::ShardCoordinator(const index::SetCollection* sets,
                                   const sim::SimilarityIndex* index,
                                   const ShardOptions& options,
                                   const index::InvertedIndex* postings)
    : options_(options) {
  const std::vector<ShardRange> ranges =
      ShardRanges(sets->size(), options.num_shards);
  if (ranges.size() == 1 && postings != nullptr) {
    searchers_.emplace_back(sets, index, postings);
    return;
  }
  indexes_ = BuildShardIndexes(*sets, ranges);
  searchers_.reserve(indexes_.size());
  for (const index::InvertedIndex& inverted : indexes_) {
    searchers_.emplace_back(sets, index, &inverted);
  }
}

core::SearchResult ShardCoordinator::Execute(std::span<const TokenId> query,
                                             const core::SearchParams& params,
                                             const QueryOptions& qopts,
                                             util::ThreadPool* shard_pool,
                                             QueryReport* report) const {
  const size_t n = num_shards();

  // One query-global θlb; every shard's refinement publishes into it and
  // derives its stop similarity from it (with the exchange off each
  // context keeps its private threshold — same results, more work). Fresh
  // per query, so no reset ordering to get wrong.
  core::GlobalThreshold shared_theta;
  const bool exchange = options_.theta_exchange && n > 1;

  // Shard lists merge by score (MergeTopK, below), which needs exact
  // scores: a set reported with its No-EM lower bound could lose its place
  // to a set from another shard whose exact score is below its own.
  core::SearchParams shard_params = params;
  if (n > 1) shard_params.verify_result_scores = true;

  // SearchContext holds atomics (non-movable) — heap-pin each one.
  std::vector<std::unique_ptr<core::SearchContext>> contexts;
  contexts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto ctx = std::make_unique<core::SearchContext>();
    if (qopts.has_deadline) ctx->set_deadline(qopts.deadline);
    if (qopts.cancel_flag != nullptr) ctx->set_cancel_flag(qopts.cancel_flag);
    if (exchange) ctx->AttachSharedTheta(&shared_theta);
    contexts.push_back(std::move(ctx));
  }

  std::vector<core::SearchResult> partial(n);
  std::vector<double> seconds(n, 0.0);

  auto run_shard = [&](size_t i) {
    std::optional<util::TraceSpan> span;
    if (n > 1) span.emplace("shard.execute", "shard", i);
    util::WallTimer timer;
    partial[i] = searchers_[i].Search(query, shard_params, contexts[i].get());
    seconds[i] = timer.ElapsedSeconds();
  };

  if (shard_pool != nullptr && n > 1) {
    // Scatter: shards 1..N-1 on the dedicated shard pool, shard 0 INLINE
    // on this (query-worker) thread — the worker always makes forward
    // progress itself and shard tasks are leaves (single-threaded
    // searches that never wait on a pool), so the fan-out cannot
    // deadlock. An exception anywhere still joins EVERY shard before
    // rethrowing: the contexts and partials live on this frame.
    std::vector<std::future<void>> futures;
    futures.reserve(n - 1);
    for (size_t i = 1; i < n; ++i) {
      futures.push_back(shard_pool->Submit([&run_shard, &qopts, i] {
        util::TraceAdopt adopt(qopts.trace_id, qopts.trace_parent);
        run_shard(i);
      }));
    }
    std::exception_ptr first_error;
    try {
      run_shard(0);
    } catch (...) {
      first_error = std::current_exception();
    }
    for (std::future<void>& future : futures) {
      try {
        future.get();
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
  } else {
    // Sequential scatter: the deterministic mode tests use (θlb flows
    // from earlier shards to later ones with reproducible tuple counts).
    for (size_t i = 0; i < n; ++i) run_shard(i);
  }

  if (report != nullptr) {
    report->shard_seconds = std::move(seconds);
    report->shard_stats.clear();
    report->shard_stats.reserve(n);
    for (const core::SearchResult& p : partial) {
      report->shard_stats.push_back(p.stats);
    }
  }

  if (n == 1) return std::move(partial[0]);

  // Gather: the exact shard lists merge into the N=1 answer bit for bit.
  KOIOS_TRACE_SPAN("shard.merge");
  core::SearchResult result;
  std::vector<core::ResultEntry> merged;
  for (core::SearchResult& p : partial) {
    merged.insert(merged.end(), p.topk.begin(), p.topk.end());
    result.stats.Merge(p.stats);
  }
  result.topk = core::MergeTopK(std::move(merged), params.k);
  return result;
}

}  // namespace koios::serve
