#include "koios/baselines/brute_force.h"

#include <algorithm>
#include <future>
#include <unordered_set>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/matching/hungarian.h"
#include "koios/sim/token_stream.h"
#include "koios/util/thread_pool.h"
#include "koios/util/timer.h"
#include "koios/util/top_k_list.h"

namespace koios::baselines {

BruteForceBaseline::BruteForceBaseline(const index::SetCollection* sets,
                                       const sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

core::SearchResult BruteForceBaseline::Search(
    std::span<const TokenId> query, const BaselineOptions& options) const {
  core::SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;

  // Refinement (candidate collection).
  util::WallTimer timer;
  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), *index_, options.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });
  core::EdgeCache cache(&stream);

  std::vector<SetId> to_verify;
  if (options.use_iub_filter) {
    // Baseline+: run the Koios refinement (iUB on, buckets on) and verify
    // the survivors without any post-processing filter.
    core::SearchParams params;
    params.k = options.k;
    params.alpha = options.alpha;
    params.use_iub_filter = true;
    core::RefinementPhase refinement(&inverted_, query.size(), params);
    core::RefinementOutput refined = refinement.Run(&cache, &result.stats);
    to_verify.reserve(refined.survivors.size());
    for (const auto& survivor : refined.survivors) {
      to_verify.push_back(survivor.set);
    }
  } else {
    // Plain baseline: every set that shares one α-similar element.
    std::unordered_set<SetId> candidates;
    for (const sim::StreamTuple& tuple : cache.tuples()) {
      for (const uint32_t rank : inverted_.Postings(tuple.token)) {
        candidates.insert(inverted_.SetAt(rank));
      }
      ++result.stats.stream_tuples;
    }
    result.stats.candidates = candidates.size();
    to_verify.assign(candidates.begin(), candidates.end());
    std::sort(to_verify.begin(), to_verify.end());
  }
  result.stats.timers.Accumulate(core::Phase::kRefinement,
                                 timer.ElapsedSeconds());
  result.stats.memory.AddPeak("stream.edge_cache", cache.MemoryUsageBytes());
  result.stats.memory.AddPeak("index.inverted", inverted_.MemoryUsageBytes());
  result.stats.memory.AddPeak("baseline.candidates",
                              to_verify.capacity() * sizeof(SetId));

  // Verification: exact matching for every candidate. The paper's baseline
  // initializes a dense |Q| x |C| similarity matrix (from the cached
  // stream similarities) and solves it with a dense Hungarian kernel.
  timer.Restart();
  auto verify = [&](SetId id) -> Score {
    if (options.dense_verification) {
      const auto tokens = sets_->Tokens(id);
      matching::WeightMatrix m(query.size(), tokens.size());
      for (uint32_t cj = 0; cj < tokens.size(); ++cj) {
        for (const core::CachedEdge& e : cache.EdgesOf(tokens[cj])) {
          double& slot = m.At(e.query_pos, cj);
          slot = std::max(slot, e.sim);
        }
      }
      return matching::HungarianMatcher::Solve(m).score;
    }
    std::vector<uint32_t> rows, cols;
    const matching::WeightMatrix m =
        cache.BuildMatrix(sets_->Tokens(id), &rows, &cols);
    return matching::HungarianMatcher::Solve(m).score;
  };

  util::TopKList<SetId> topk(options.k);
  if (options.num_threads > 1) {
    util::ThreadPool pool(options.num_threads);
    std::vector<std::future<Score>> futures;
    futures.reserve(to_verify.size());
    for (SetId id : to_verify) {
      futures.push_back(pool.Submit([&verify, id] { return verify(id); }));
    }
    for (size_t i = 0; i < to_verify.size(); ++i) {
      const Score so = futures[i].get();
      ++result.stats.em_computed;
      if (so > 0.0) topk.Offer(to_verify[i], so);
    }
  } else {
    for (SetId id : to_verify) {
      const Score so = verify(id);
      ++result.stats.em_computed;
      if (so > 0.0) topk.Offer(id, so);
    }
  }
  result.stats.timers.Accumulate(core::Phase::kPostprocess,
                                 timer.ElapsedSeconds());

  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  return result;
}

}  // namespace koios::baselines
