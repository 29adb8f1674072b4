#include "koios/core/normalized_search.h"

#include <algorithm>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/postprocess.h"
#include "koios/core/refinement.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"
#include "koios/util/top_k_list.h"

namespace koios::core {

Score NormalizedOverlap(std::span<const TokenId> query,
                        std::span<const TokenId> candidate,
                        const sim::SimilarityFunction& sim, Score alpha) {
  if (query.empty() || candidate.empty()) return 0.0;
  const Score so = matching::SemanticOverlap(query, candidate, sim, alpha);
  return so / static_cast<Score>(std::min(query.size(), candidate.size()));
}

NormalizedSearcher::NormalizedSearcher(const index::SetCollection* sets,
                                       sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

SearchResult NormalizedSearcher::Search(std::span<const TokenId> query,
                                        const SearchParams& params) {
  SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;
  util::WallTimer timer;

  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });
  EdgeCache cache(&stream);

  // ---- refinement with per-candidate normalized bounds --------------------
  RefinementScratch& scratch = ThreadRefinementScratch();
  CandidateTable& table = scratch.table;
  table.Reset(sets_->size(), query.size());
  util::TopKList<SetId> llb(params.k);  // normalized lower bounds

  for (const sim::StreamTuple& tuple : cache.tuples()) {
    const Score s = tuple.sim;
    const Score theta = llb.Bottom();
    const std::span<const SetId> postings = inverted_.Postings(tuple.token);
    const size_t token_bits = table.TokenBits(tuple.token, postings.size());
    for (size_t i = 0; i < postings.size(); ++i) {
      const SetId id = postings[i];
      uint32_t slot = table.Lookup(id);
      if (slot == CandidateTable::kPruned) continue;
      if (slot == CandidateTable::kUnseen) {
        ++result.stats.candidates;
        // Arrival bound: UB = cap * s, so NSO <= s regardless of cap.
        if (params.use_iub_filter && s < theta - kScoreEps) {
          table.MarkPruned(id);
          ++result.stats.iub_filtered;
          continue;
        }
        slot = table.Add(id, table.Capacity(sets_->SetSize(id)));
      }
      const CandidateState& c = table[slot];
      const Score cap = static_cast<Score>(c.capacity);
      table.AddRow(slot, tuple.query_pos, s);
      if (table.EdgeValid(slot, tuple.query_pos, token_bits + i)) {
        table.AddMatch(slot, tuple.query_pos, token_bits + i, s);
        llb.Offer(id, c.partial / cap);
      }
      // Per-candidate normalized upper bound (no shared bucket cutoff).
      if (params.use_iub_filter &&
          c.UpperBound(s) / cap < llb.Bottom() - kScoreEps) {
        table.Prune(slot);
        ++result.stats.iub_filtered;
      }
    }
    ++result.stats.stream_tuples;
  }
  // Final sweep: the slack term vanishes after exhaustion. The survivors'
  // normalized upper bounds order verification.
  struct Item {
    Score nub;  // normalized upper bound
    SetId id;
    Score cap;
  };
  std::vector<Item> order;
  table.ForEachLive([&](uint32_t slot, const CandidateState& c) {
    const Score cap = static_cast<Score>(c.capacity);
    const Score nub = c.row_sum / cap;
    if (params.use_iub_filter && nub < llb.Bottom() - kScoreEps) {
      table.Prune(slot);
      ++result.stats.iub_filtered;
      return;
    }
    order.push_back({nub, c.id, cap});
  });
  result.stats.postprocess_sets += order.size();
  result.stats.timers.Accumulate("refinement", timer.ElapsedSeconds());

  // ---- verification: window over normalized upper bounds ------------------
  timer.Restart();
  std::sort(order.begin(), order.end(), [](const Item& a, const Item& b) {
    if (a.nub != b.nub) return a.nub > b.nub;
    return a.id > b.id;
  });

  // Verify in descending bound order until the k-th best verified score
  // dominates every remaining bound.
  util::TopKList<SetId> topk(params.k);
  for (const Item& item : order) {
    if (topk.Full() && item.nub < topk.Bottom() - kScoreEps) break;  // dominated
    const Score prune_threshold =
        params.use_em_early_termination && topk.Full()
            ? topk.Bottom() * item.cap
            : -1.0;
    const matching::MatchResult match =
        ExactMatch(cache, sets_->Tokens(item.id), prune_threshold,
                   &result.stats.em_workspace_reuses);
    if (match.early_terminated) {
      ++result.stats.em_early_terminated;
      continue;
    }
    ++result.stats.em_computed;
    const Score nso = match.score / item.cap;
    if (nso > 0.0) topk.Offer(item.id, nso);
  }
  result.stats.timers.Accumulate("postprocess", timer.ElapsedSeconds());

  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  return result;
}

}  // namespace koios::core
