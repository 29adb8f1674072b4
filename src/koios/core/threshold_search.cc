#include "koios/core/threshold_search.h"

#include <algorithm>

#include "koios/core/edge_cache.h"
#include "koios/core/postprocess.h"
#include "koios/core/refinement.h"
#include "koios/sim/token_stream.h"
#include "koios/util/timer.h"

namespace koios::core {

ThresholdSearcher::ThresholdSearcher(const index::SetCollection* sets,
                                     sim::SimilarityIndex* index)
    : sets_(sets), index_(index), inverted_(*sets) {}

std::vector<ResultEntry> ThresholdSearcher::Search(
    std::span<const TokenId> query, const ThresholdParams& params,
    SearchStats* stats) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  std::vector<ResultEntry> result;
  if (query.empty() || sets_->size() == 0) return result;

  util::WallTimer timer;
  sim::TokenStream stream(
      std::vector<TokenId>(query.begin(), query.end()), index_, params.alpha,
      [this](TokenId t) { return inverted_.InVocabulary(t); });
  EdgeCache cache(&stream);

  // ---- refinement with the fixed threshold θ -----------------------------
  const Score theta = params.theta;
  RefinementScratch& scratch = ThreadRefinementScratch();
  CandidateTable& table = scratch.table;
  BucketIndex& buckets = scratch.buckets;
  table.Reset(sets_->size(), query.size());
  buckets.Clear();

  auto prune = [&](uint32_t slot) {
    table.Prune(slot);
    ++stats->iub_filtered;
  };

  for (const sim::StreamTuple& tuple : cache.tuples()) {
    const Score s = tuple.sim;
    buckets.Prune(s, theta, prune);
    const std::span<const SetId> postings = inverted_.Postings(tuple.token);
    const size_t token_bits = table.TokenBits(tuple.token, postings.size());
    for (size_t i = 0; i < postings.size(); ++i) {
      const SetId id = postings[i];
      uint32_t slot = table.Lookup(id);
      if (slot == CandidateTable::kPruned) continue;
      if (slot == CandidateTable::kUnseen) {
        ++stats->candidates;
        const uint32_t capacity = table.Capacity(sets_->SetSize(id));
        if (static_cast<Score>(capacity) * s < theta - kScoreEps) {
          table.MarkPruned(id);
          ++stats->iub_filtered;
          continue;
        }
        slot = table.Add(id, capacity);
        buckets.Insert(slot, capacity, 0.0);
      }
      if (table.AddRow(slot, tuple.query_pos, s)) {
        const CandidateState& c = table[slot];
        buckets.Move(slot, c.remaining(), c.row_sum);
        ++stats->bucket_moves;
      }
      if (table.EdgeValid(slot, tuple.query_pos, token_bits + i)) {
        table.AddMatch(slot, tuple.query_pos, token_bits + i, s);
      }
    }
    ++stats->stream_tuples;
  }
  buckets.Prune(0.0, theta, prune);  // final sweep: the slack term vanishes
  stats->timers.Accumulate("refinement", timer.ElapsedSeconds());

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
  stats->timers.Accumulate("postprocess", timer.ElapsedSeconds());

  std::sort(result.begin(), result.end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.set < b.set;
            });
  return result;
}

}  // namespace koios::core
