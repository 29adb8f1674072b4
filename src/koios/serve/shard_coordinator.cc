#include "koios/serve/shard_coordinator.h"

#include <algorithm>
#include <exception>
#include <future>
#include <numeric>
#include <optional>
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

/// Each shard's members: the ids of its range, ascending.
std::vector<std::vector<SetId>> ShardMembers(size_t set_count,
                                             size_t num_shards) {
  std::vector<std::vector<SetId>> members;
  for (const ShardRange& range : ShardRanges(set_count, num_shards)) {
    std::vector<SetId>& ids = members.emplace_back(range.end - range.first);
    std::iota(ids.begin(), ids.end(), range.first);
  }
  return members;
}

core::KoiosSearcher MakeSearcher(const index::SetCollection* sets,
                                 const sim::SimilarityIndex* index,
                                 size_t num_shards,
                                 const index::InvertedIndex* postings) {
  if (postings != nullptr && ShardRanges(sets->size(), num_shards).size() == 1) {
    return core::KoiosSearcher(sets, index, postings);
  }
  return core::KoiosSearcher(sets, index, ShardMembers(sets->size(), num_shards));
}

}  // namespace

ShardCoordinator::ShardCoordinator(const index::SetCollection* sets,
                                   const sim::SimilarityIndex* index,
                                   const ShardOptions& options,
                                   const index::InvertedIndex* postings)
    : options_(options),
      searcher_(MakeSearcher(sets, index, options.num_shards, postings)) {}

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
    partial[i] =
        searcher_.SearchPartition(i, query, params, contexts[i].get());
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

  // Gather: the searcher's own partition merge, which is what makes the
  // result bit-identical to N=1.
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
