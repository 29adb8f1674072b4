#include "koios/core/searcher.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"
#include "koios/util/rng.h"
#include "koios/util/trace_recorder.h"

namespace koios::core {

namespace {

/// The paper's random partitions (§VI: "we randomly partition the
/// repository"): expected equal sizes, ids ascending in each.
std::vector<std::vector<SetId>> RandomPartitions(
    const index::SetCollection& sets, const SearcherOptions& options) {
  const size_t p = std::max<size_t>(1, options.num_partitions);
  std::vector<std::vector<SetId>> members(p);
  util::Rng rng(options.partition_seed);
  for (SetId id = 0; id < sets.size(); ++id) {
    members[p == 1 ? 0 : rng.NextBounded(p)].push_back(id);
  }
  return members;
}

/// Each partition's ranked index: partition 0 on the calling thread, the
/// others on at most min(P − 1, hardware threads) short-lived threads that
/// take the partitions in turn. A build failure (bad_alloc) is rethrown
/// here once every thread has joined.
std::vector<index::InvertedIndex> BuildPartitions(
    const index::SetCollection& sets,
    const std::vector<std::vector<SetId>>& partitions) {
  assert(!partitions.empty());
  std::vector<index::InvertedIndex> built(partitions.size());
  std::atomic<size_t> next{1};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto build = [&](size_t i) {
    try {
      built[i] = index::InvertedIndex(sets, partitions[i]);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
    }
  };
  const size_t helpers =
      std::min<size_t>(partitions.size() - 1,
                       std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < partitions.size();) build(i);
    });
  }
  build(0);
  for (std::thread& thread : threads) thread.join();
  if (error != nullptr) std::rethrow_exception(error);
  return built;
}

}  // namespace

KoiosSearcher::KoiosSearcher(const index::SetCollection* sets,
                             const sim::SimilarityIndex* index,
                             const SearcherOptions& options)
    : KoiosSearcher(sets, index, RandomPartitions(*sets, options)) {}

KoiosSearcher::KoiosSearcher(
    const index::SetCollection* sets, const sim::SimilarityIndex* index,
    const std::vector<std::vector<SetId>>& partitions)
    : sets_(sets),
      index_(index),
      owned_(BuildPartitions(*sets, partitions)),
      partitions_(owned_) {}

KoiosSearcher::KoiosSearcher(const index::SetCollection* sets,
                             const sim::SimilarityIndex* index,
                             const index::InvertedIndex* inverted)
    : sets_(sets), index_(index), partitions_(inverted, 1) {
  assert(inverted->num_sets() == sets->size());
}

bool KoiosSearcher::InVocabulary(TokenId token) const {
  for (const auto& inverted : partitions_) {
    if (inverted.InVocabulary(token)) return true;
  }
  return false;
}

SearchResult KoiosSearcher::Search(std::span<const TokenId> query,
                                   const SearchParams& params,
                                   SearchContext* ctx) const {
  return SearchPartitions(partitions_, query, params, ctx);
}

SearchResult KoiosSearcher::SearchPartition(size_t i,
                                            std::span<const TokenId> query,
                                            const SearchParams& params,
                                            SearchContext* ctx) const {
  assert(i < partitions_.size());
  return SearchPartitions(partitions_.subspan(i, 1), query, params, ctx);
}

SearchResult KoiosSearcher::SearchPartitions(
    std::span<const index::InvertedIndex> partitions,
    std::span<const TokenId> query, const SearchParams& query_params,
    SearchContext* ctx) const {
  assert(query_params.k >= 1);
  assert(query_params.alpha > 0.0);
  SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;

  // Partition lists merge by score (MergeTopK, below or in the caller of
  // SearchPartition), which needs exact scores: a set reported with its
  // No-EM lower bound could lose its place to a set from another partition
  // whose exact score is below its own.
  SearchParams params = query_params;
  if (partitions_.size() > 1) params.verify_result_scores = true;

  // Per-query machinery: callers that care (the serve engine) pass their
  // own context (deadline, cancel flag, shared θlb); others get a
  // stack-local one.
  SearchContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  ctx->BeginSearch();
  ctx->CheckCancelled();  // an already-expired deadline never starts work

  // Root span of the search core (children: cursor build, per-partition
  // refinement/postprocess).
  util::TraceSpan search_span("search", "query_tokens", query.size());

  // ---- shared refinement input: the token stream ------------------------
  std::optional<sim::TokenStream> stream_storage;
  {
    // Cursor construction: TokenStream's constructor prewarms every query
    // token's (token, α) cursor — the up-front index cost of a query.
    // Timed into the stats (not only the sampled trace) so per-shard
    // breakdowns can read the cost of every query, sampled or not.
    PhaseScope phase(Phase::kCursorBuild, &result.stats);
    stream_storage.emplace(
        std::vector<TokenId>(query.begin(), query.end()), *index_,
        params.alpha, [partitions](TokenId t) {
          return std::any_of(partitions.begin(), partitions.end(),
                             [t](const index::InvertedIndex& inverted) {
                               return inverted.InVocabulary(t);
                             });
        });
  }

  // ---- θlb feedback (§IV–VI) --------------------------------------------
  // Refinement publishes its running θlb into the shared GlobalThreshold
  // (one partition's k-th lower bound is a valid bound on the merged θ*k,
  // so the maximum serves every partition) and stops pulling the stream at
  // the stop similarity τ(θlb, |Q|, partial scores); the cache produces
  // only what refinement pulls, so tuples under τ are never ordered,
  // scored or cached. Exactness requires the index's SimilarityFunction so
  // exact matching can complete below-τ edges on demand (the index streams
  // every vocabulary token with sim >= α, so completion scores exactly the
  // pairs a drain would). Without it (or with the ablation toggle off) the
  // stream drains to α as the seed did.
  const sim::SimilarityFunction* completer = index_->similarity();
  const bool feedback = params.use_stream_feedback && completer != nullptr;
  EdgeCache cache(&*stream_storage, feedback ? completer : nullptr, ctx);

  // ---- per-partition search under the shared global θlb ------------------
  // Partitions run one after another. Production stays open across them —
  // a later partition may need tuples below an earlier one's stop — and is
  // sealed once all of them finished; its cost lands in the refinement
  // timers of the partitions that pulled it.
  std::vector<ResultEntry> merged;
  size_t index_bytes = 0;
  for (const index::InvertedIndex& inverted : partitions) {
    index_bytes += inverted.MemoryUsageBytes();
    SearchStats stats;
    RefinementOutput refined;
    {
      PhaseScope phase(Phase::kRefinement, &stats);
      RefinementPhase refinement(&inverted, query.size(), params);
      refined = refinement.Run(&cache, &stats, ctx);
      phase.set_arg("tuples", stats.stream_tuples);
    }
    {
      PhaseScope phase(Phase::kPostprocess, &stats);
      PostProcessor post(sets_, &cache, params, ctx);
      const std::vector<ResultEntry> topk = post.Run(std::move(refined), &stats);
      merged.insert(merged.end(), topk.begin(), topk.end());
      phase.set_arg("em_computed", stats.em_computed);
    }
    result.stats.Merge(stats);
  }
  cache.FinishProduction();
  result.stats.stream_tuples_produced = cache.produced();
  result.stats.stream_stop_sim = cache.stop_sim();
  result.stats.memory.AddPeak("stream.edge_cache", cache.MemoryUsageBytes());
  result.stats.memory.AddPeak("index.inverted", index_bytes);
  result.topk = MergeTopK(std::move(merged), params.k);
  return result;
}

std::vector<ResultEntry> MergeTopK(std::vector<ResultEntry> entries,
                                   size_t k) {
  std::sort(entries.begin(), entries.end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.set < b.set;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

}  // namespace koios::core
