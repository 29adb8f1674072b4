#include "koios/core/many_to_one.h"

#include <algorithm>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"
#include "koios/util/top_k_list.h"

namespace koios::core {

Score ManyToOneOverlap(std::span<const TokenId> query,
                       std::span<const TokenId> candidate,
                       const sim::SimilarityFunction& sim, Score alpha) {
  Score total = 0.0;
  for (TokenId q : query) {
    Score best = 0.0;
    for (TokenId c : candidate) {
      best = std::max(best, sim.SimilarityAlpha(q, c, alpha));
    }
    total += best;
  }
  return total;
}

ManyToOneSearcher::ManyToOneSearcher(const index::SetCollection* sets,
                                     const sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

SearchResult ManyToOneSearcher::Search(std::span<const TokenId> query,
                                       const SearchParams& params) const {
  SearchResult result;
  if (query.empty() || sets_->size() == 0) return result;
  util::WallTimer timer;

  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), *index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });

  // Per-candidate state: the query rows whose maximum has been retained
  // (first edge per row = row max, by stream order) and their sum. Unlike
  // the 1:1 engine there is no capacity cap — every query row contributes,
  // so each record's capacity is |Q| and its row_sum is the score.
  const uint32_t rows_total = static_cast<uint32_t>(query.size());
  CandidateTable& table = ThreadCandidateTable();
  table.Reset(0, static_cast<SetId>(sets_->size()), query.size());
  util::TopKList<SetId> topk(params.k);

  // The bound score + remaining_rows * s is *exact* at convergence: it is
  // the same retained-row-maxima bound as the 1:1 engine, which for the
  // many-to-one measure equals the final score. Its filter is lazy, as in
  // RefinementPhase: a candidate is checked against the (s, θ) its tuple
  // started with when a posting walk touches it.
  size_t tuples = 0;
  Score tuple_sim = 0.0, tuple_theta = 0.0;
  std::vector<uint32_t> moved;  // slots whose bound the last tuple changed
  while (auto tuple = stream.Next()) {
    ++tuples;
    const Score s = tuple_sim = tuple->sim;
    tuple_theta = topk.Bottom();
    moved.clear();
    for (SetId id : inverted_.Postings(tuple->token)) {
      uint32_t slot = table.Lookup(id);
      if (slot == CandidateTable::kPruned) continue;
      if (slot != CandidateTable::kUnseen) {
        if (params.use_iub_filter && table[slot].Prunable(s, tuple_theta)) {
          table.Prune(slot);
          ++result.stats.iub_filtered;
          continue;
        }
      } else {
        ++result.stats.candidates;
        const Score ub0 = static_cast<Score>(rows_total) * s;
        if (params.use_iub_filter && ub0 < topk.Bottom() - kScoreEps) {
          table.MarkPruned(id);
          ++result.stats.iub_filtered;
          continue;
        }
        slot = table.Add(id, rows_total);
      }
      if (table.AddRow(slot, tuple->query_pos, s)) {
        const CandidateState& c = table[slot];
        if (params.use_iub_filter) {
          moved.push_back(slot);
          ++result.stats.bucket_moves;
        }
        // The accumulated score is itself a lower bound on the final score,
        // so the running top-k threshold may rise immediately. Scores only
        // grow, so one below a full list's bottom can never enter it.
        if (!topk.Full() || c.row_sum >= topk.Bottom()) {
          topk.Offer(id, c.row_sum);
        }
      }
    }
  }
  result.stats.stream_tuples = tuples;
  if (params.use_iub_filter) {
    // Closing pass: there is no final sweep, so the filter's last decision
    // is the one at the last tuple's (s, θ). Candidates the last tuple
    // moved were checked against it before their move; check the rest.
    std::sort(moved.begin(), moved.end());
    table.ForEachLive([&](uint32_t slot, const CandidateState& c) {
      if (c.Prunable(tuple_sim, tuple_theta) &&
          !std::binary_search(moved.begin(), moved.end(), slot)) {
        table.Prune(slot);
        ++result.stats.iub_filtered;
      }
    });
  }

  // Stream exhausted: every candidate's accumulated score is exact. The
  // top-k list already holds the answer (scores were offered monotonically).
  for (const auto& [id, score] : topk.Descending()) {
    result.topk.push_back({id, score, /*exact=*/true});
  }
  result.stats.timers.Accumulate(Phase::kRefinement, timer.ElapsedSeconds());
  result.stats.memory.AddPeak("refinement.scratch", table.MemoryUsageBytes());
  return result;
}

}  // namespace koios::core
