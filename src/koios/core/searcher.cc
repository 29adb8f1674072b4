#include "koios/core/searcher.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"
#include "koios/util/trace_recorder.h"

namespace koios::core {

KoiosSearcher::KoiosSearcher(const index::SetCollection* sets,
                             const sim::SimilarityIndex* index)
    : sets_(sets),
      index_(index),
      owned_(std::make_unique<const index::InvertedIndex>(*sets)),
      inverted_(owned_.get()) {}

KoiosSearcher::KoiosSearcher(const index::SetCollection* sets,
                             const sim::SimilarityIndex* index,
                             const index::InvertedIndex* inverted)
    : sets_(sets), index_(index), inverted_(inverted) {
  assert(inverted->num_sets() <= sets->size());
}

SearchResult KoiosSearcher::Search(std::span<const TokenId> query,
                                   const SearchParams& params,
                                   SearchContext* ctx) const {
  assert(params.k >= 1);
  assert(params.alpha > 0.0);
  SearchResult result;
  if (query.empty() || inverted_->num_sets() == 0) return result;

  // Per-query machinery: callers that care (the serve engine) pass their
  // own context (deadline, cancel flag, shared θlb); others get a
  // stack-local one.
  SearchContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  ctx->BeginSearch();
  ctx->CheckCancelled();  // an already-expired deadline never starts work

  // Root span of the search core (children: cursor build, refinement,
  // postprocess).
  util::TraceSpan search_span("search", "query_tokens", query.size());

  // ---- refinement input: the token stream --------------------------------
  std::optional<sim::TokenStream> stream;
  {
    // Cursor construction: TokenStream's constructor prewarms every query
    // token's (token, α) cursor — the up-front index cost of a query.
    // Timed into the stats (not only the sampled trace) so per-shard
    // breakdowns can read the cost of every query, sampled or not.
    PhaseScope phase(Phase::kCursorBuild, &result.stats);
    stream.emplace(std::vector<TokenId>(query.begin(), query.end()), *index_,
                   params.alpha, [inverted = inverted_](TokenId t) {
                     return inverted->InVocabulary(t);
                   });
  }

  // ---- θlb feedback (§IV–VI) --------------------------------------------
  // Refinement publishes its running θlb into the context's
  // GlobalThreshold (one partition's k-th lower bound is a valid bound on
  // the merged θ*k, so a threshold shared across partitions serves them
  // all) and stops pulling the stream at the stop similarity
  // τ(θlb, |Q|, partial scores); the cache produces only what refinement
  // pulls, so tuples under τ are never ordered, scored or cached.
  // Exactness requires the index's SimilarityFunction so exact matching
  // can complete below-τ edges on demand (the index streams every
  // vocabulary token with sim >= α, so completion scores exactly the
  // pairs a drain would). Without it (or with the ablation toggle off) the
  // stream drains to α as the seed did.
  const sim::SimilarityFunction* completer = index_->similarity();
  const bool feedback = params.use_stream_feedback && completer != nullptr;
  EdgeCache cache(&*stream, feedback ? completer : nullptr, ctx);

  RefinementOutput refined;
  {
    PhaseScope phase(Phase::kRefinement, &result.stats);
    RefinementPhase refinement(inverted_, query.size(), params);
    refined = refinement.Run(&cache, &result.stats, ctx);
    phase.set_arg("tuples", result.stats.stream_tuples);
  }
  // Refinement was the stream's one consumer; post-processing never pulls,
  // so production ends here.
  cache.FinishProduction();
  {
    PhaseScope phase(Phase::kPostprocess, &result.stats);
    PostProcessor post(sets_, &cache, params, ctx);
    result.topk = post.Run(std::move(refined), &result.stats);
    phase.set_arg("em_computed", result.stats.em_computed);
  }
  result.stats.stream_tuples_produced = cache.produced();
  result.stats.stream_stop_sim = cache.stop_sim();
  result.stats.memory.AddPeak("stream.edge_cache", cache.MemoryUsageBytes());
  result.stats.memory.AddPeak("index.inverted", inverted_->MemoryUsageBytes());
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
