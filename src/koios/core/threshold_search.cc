#include "koios/core/threshold_search.h"

#include <algorithm>

#include "koios/core/edge_cache.h"
#include "koios/core/postprocess.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"

namespace koios::core {

ThresholdSearcher::ThresholdSearcher(const index::SetCollection* sets,
                                     const sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

std::vector<ResultEntry> ThresholdSearcher::Search(
    std::span<const TokenId> query, const ThresholdParams& params,
    SearchStats* stats) const {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  std::vector<ResultEntry> result;
  if (query.empty() || sets_->size() == 0) return result;

  util::WallTimer timer;
  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), *index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });
  EdgeCache cache(&stream);

  // ---- refinement with the fixed threshold θ -----------------------------
  // The iUB filter is lazy, as in RefinementPhase: a candidate is checked
  // when a posting walk touches it and in the final sweep.
  const Score theta = params.theta;
  CandidateTable& table = ThreadCandidateTable();
  table.Reset(0, static_cast<SetId>(sets_->size()), query.size());

  for (const sim::StreamTuple& tuple : cache.tuples()) {
    const Score s = tuple.sim;
    const std::span<const SetId> postings = inverted_.Postings(tuple.token);
    const size_t token_bits = table.TokenBits(tuple.token, postings.size());
    for (size_t i = 0; i < postings.size(); ++i) {
      const SetId id = postings[i];
      uint32_t slot = table.Lookup(id);
      if (slot == CandidateTable::kPruned) continue;
      if (slot != CandidateTable::kUnseen) {
        if (table[slot].Prunable(s, theta)) {
          table.Prune(slot);
          ++stats->iub_filtered;
          continue;
        }
      } else {
        ++stats->candidates;
        const uint32_t capacity = table.Capacity(sets_->SetSize(id));
        if (static_cast<Score>(capacity) * s < theta - kScoreEps) {
          table.MarkPruned(id);
          ++stats->iub_filtered;
          continue;
        }
        slot = table.Add(id, capacity);
      }
      if (table.AddRow(slot, tuple.query_pos, s)) ++stats->bucket_moves;
      if (table.EdgeValid(slot, tuple.query_pos, token_bits + i)) {
        table.AddMatch(slot, tuple.query_pos, token_bits + i, s);
      }
    }
    ++stats->stream_tuples;
  }
  // Final sweep: the slack term vanishes.
  table.Sweep(0.0, theta, &stats->iub_filtered);
  stats->timers.Accumulate(Phase::kRefinement, timer.ElapsedSeconds());

  // ---- verification -------------------------------------------------------
  timer.Restart();
  stats->postprocess_sets += table.live();
  table.ForEachLive([&](uint32_t, const CandidateState& c) {
    ResultEntry entry;
    entry.set = c.id;
    if (params.use_lb_admission && c.partial >= theta - kScoreEps &&
        !params.verify_scores) {
      // Greedy lower bound certifies membership; skip the matching.
      entry.score = c.partial;
      entry.exact = false;
      ++stats->no_em_skipped;
      result.push_back(entry);
      return;
    }
    const double prune_threshold =
        params.use_em_early_termination ? theta : -1.0;
    const matching::MatchResult match =
        ExactMatch(cache, sets_->Tokens(c.id), prune_threshold,
                   &stats->em_workspace_reuses);
    if (match.early_terminated) {
      ++stats->em_early_terminated;
      return;  // certified SO < theta
    }
    ++stats->em_computed;
    if (match.score >= theta - kScoreEps) {
      entry.score = match.score;
      entry.exact = true;
      result.push_back(entry);
    }
  });
  stats->timers.Accumulate(Phase::kPostprocess, timer.ElapsedSeconds());

  std::sort(result.begin(), result.end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.set < b.set;
            });
  return result;
}

}  // namespace koios::core
