#include "koios/core/refinement.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "koios/core/postprocess.h"
#include "koios/util/fault_injector.h"

namespace koios::core {

namespace {

// The calling thread's candidate table, the working state of
// RefinementPhase::Run, its one user. It is owned per thread and reused by
// every refinement run on it, keeping its storage between runs, so a warm
// thread allocates nothing per query. Refinement never nests on a thread,
// and each run resets the table first, so a run that unwound mid-query
// leaves nothing behind.
CandidateTable& ThreadCandidateTable() {
  thread_local CandidateTable table;
  return table;
}

}  // namespace

RefinementPhase::RefinementPhase(const index::InvertedIndex* inverted,
                                 size_t query_size, const SearchParams& params)
    : inverted_(inverted),
      query_size_(query_size),
      params_(params) {}

RefinementOutput RefinementPhase::Run(EdgeCache* cache, SearchStats* stats,
                                      SearchContext* ctx) {
  GlobalThreshold* global_theta = ctx != nullptr ? &ctx->global_theta() : nullptr;
  RefinementOutput out;
  out.llb = util::TopKList<SetId>(params_.k);

  CandidateTable& table = ThreadCandidateTable();
  table.Reset(inverted_->num_sets(), query_size_);
  // The iUB filter (§V): the arrival of stream similarity s tightens every
  // candidate's upper bound to S_i + m_i·s. Its cutoff never falls (see
  // CandidateState::Prunable), so instead of sweeping every candidate per
  // tuple, the lazy filter checks one when the posting walk touches it,
  // when the feedback stop check scans it, and in the final sweep: it
  // prunes the same sets before anything reads them. use_bucket_index =
  // false selects the per-tuple sweep (the naive update §V argues against).
  const bool lazy_iub = params_.use_iub_filter && params_.use_bucket_index;
  const bool naive_iub = params_.use_iub_filter && !params_.use_bucket_index;

  auto current_theta = [&]() -> Score {
    const Score local = out.llb.Bottom();
    if (global_theta == nullptr) return local;
    return std::max(local, global_theta->Get());
  };
  Score theta_lb = current_theta();
  Score last_sim = 1.0;

  // Consumer-side stop (feedback only, so the drain-to-α ablation replays
  // the stream bit for bit). Condition 1 — exactness: |Q|·s < θlb − ε
  // rules every unseen set out (Lemma 2) and pruning is monotone in θlb.
  // Condition 2 — work balance: stopping freezes every survivor's upper
  // bound at UpperBound(s), so it must not strand more candidates above
  // θlb than post-processing can cheaply dismiss. The count is an iUB
  // sweep at (s, θlb), the one the next tuple would start with, that
  // returns once the budget is exceeded. It runs at a coarse cadence — it
  // costs O(candidates) worst case, versus an inverted-index probe per
  // tuple.
  const bool may_stop_early = cache->FeedbackEnabled();
  const Score query_size_score = static_cast<Score>(query_size_);
  const size_t budget = std::max<size_t>(32, 4 * params_.k);
  constexpr size_t kStopCheckCadence = 64;
  size_t next_stop_check = 0;
  size_t next_cancel_check = 0;
  bool stopped_early = false;
  auto should_stop = [&](Score s) {
    if (ctx != nullptr && stats->stream_tuples >= next_cancel_check) {
      // Deadline/cancellation poll at the stop-check cadence: cheap, and
      // frequent enough that an expired query unwinds within a few dozen
      // tuples. The failpoint lets tests stall a query here, mid-refinement.
      next_cancel_check = stats->stream_tuples + kStopCheckCadence;
      (void)KOIOS_FAULTPOINT("refinement.cancel_poll");
      ctx->CheckCancelled();
    }
    if (!may_stop_early || s * query_size_score >= theta_lb - kScoreEps) {
      return false;
    }
    if (stats->stream_tuples < next_stop_check) return false;
    next_stop_check = stats->stream_tuples + kStopCheckCadence;
    size_t survivors = 0;
    if (params_.use_iub_filter) {
      survivors = table.Sweep(s, theta_lb, &stats->iub_filtered, budget);
    } else {
      table.ForEachLive([&](uint32_t, const CandidateState& c) {
        if (!c.Prunable(s, theta_lb)) ++survivors;
      });
    }
    if (survivors <= budget) {
      stats->stream_survivor_budget =
          std::max(stats->stream_survivor_budget, budget);
      return true;
    }
    return false;
  };

  // The size cut (Lemma 2 at s = 1, see CandidateState): a set with
  // min(|Q|, |C|) < θ − ε can never reach the top-k, so the walk keeps only
  // the sets with min(|Q|, |C|) ≥ cut_size = ⌈θ − ε⌉. The lists are ranked
  // by |C| descending, so those are the ranks below
  // RanksWithSizeAtLeast(cut_size), or none once cut_size exceeds |Q|.
  // Sets at least |Q| large have capacity |Q|; the rest read their size
  // from the rank.
  size_t cut_size = 0;
  const uint32_t full_capacity = inverted_->RanksWithSizeAtLeast(query_size_);

  auto process_tuple = [&](const sim::StreamTuple& tuple) {
    const Score s = tuple.sim;
    last_sim = s;
    // Touched candidates are checked against the θlb the tuple starts
    // with, as a sweep here would be; θlb may rise during the walk.
    const Score tuple_theta = theta_lb;
    if (naive_iub) table.Sweep(s, tuple_theta, &stats->iub_filtered);
    const Score need = tuple_theta - kScoreEps;
    cut_size = need > 0.0 ? static_cast<size_t>(std::ceil(need)) : 0;
    const uint32_t cut = cut_size > query_size_
                             ? 0
                             : inverted_->RanksWithSizeAtLeast(cut_size);

    // Probe the inverted index and update the sets containing this token,
    // up to the size cut.
    const std::span<const uint32_t> postings = inverted_->Postings(tuple.token);
    const size_t token_bits = table.TokenBits(tuple.token, postings.size());
    size_t i = 0;
    for (; i < postings.size() && postings[i] < cut; ++i) {
      const uint32_t rank = postings[i];
      uint32_t slot = table.Lookup(rank);
      if (slot == CandidateTable::kPruned) continue;
      if (slot != CandidateTable::kUnseen) {
        if (lazy_iub && table[slot].Prunable(s, tuple_theta)) {
          table.Prune(slot);
          ++stats->iub_filtered;
          continue;
        }
      } else {
        // First sighting: s is this set's maximum element similarity to
        // any query element, so UB(C) = min(|Q|, |C|) * s (Lemma 2).
        ++stats->candidates;
        const uint32_t capacity =
            rank < full_capacity
                ? static_cast<uint32_t>(query_size_)
                : table.Capacity(inverted_->SetSize(rank));
        if (params_.use_iub_filter &&
            static_cast<Score>(capacity) * s < theta_lb - kScoreEps) {
          table.MarkPruned(rank);
          ++stats->iub_filtered;
          continue;
        }
        slot = table.Add(rank, capacity);
      }

      // iUB row update: retain this row's maximum if the row is new and
      // capacity remains (see CandidateState for the sound bound replacing
      // the paper's Lemma 6). A change of the iUB key m is what §V counts
      // as a bucket move.
      if (table.AddRow(slot, tuple.query_pos, s) && lazy_iub) {
        ++stats->bucket_moves;
      }

      // Partial greedy matching update (iLB, Lemma 5): accept the edge iff
      // both endpoints are unmatched. Stream order makes this the true
      // greedy matching over the edges seen so far.
      if (table.EdgeValid(slot, tuple.query_pos, token_bits + i)) {
        table.AddMatch(slot, tuple.query_pos, token_bits + i, s);
        // LB grew; the running top-k list and θlb may improve (Lemma 4).
        // Partial scores only grow, so a set below a full list's bottom
        // is not in the list and cannot enter it.
        const Score partial = table[slot].partial;
        if (!out.llb.Full() || partial >= out.llb.Bottom()) {
          out.llb.Offer(inverted_->SetAt(rank), partial);
          if (global_theta != nullptr && out.llb.Full()) {
            global_theta->Publish(out.llb.Bottom());
          }
        }
        theta_lb = current_theta();
      }
    }
    stats->postings_visited += i;
    ++stats->stream_tuples;
  };

  // Pull the stream in chunks; the cache produces each chunk on the spot.
  std::array<sim::StreamTuple, EdgeCache::kPullChunk> chunk;
  while (!stopped_early) {
    const size_t n = cache->NextTuples(chunk);
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      if (should_stop(chunk[i].sim)) {
        out.ub_slack = chunk[i].sim;
        stopped_early = true;
        break;
      }
      process_tuple(chunk[i]);
    }
  }
  if (!stopped_early) {
    // The stream ended, so the cache is sealed: 0 when it drained to α.
    out.ub_slack = cache->stop_sim();
  }

  // Final sweep after the stream ends: the slack term drops to ub_slack —
  // 0 at exhaustion (a row without a retained maximum has no α-edge left),
  // the stop similarity when the feedback loop ended the stream early. It
  // also prunes what the lazy filter has not checked since it became
  // prunable.
  if (params_.use_iub_filter) {
    table.Sweep(out.ub_slack, theta_lb, &stats->iub_filtered);
  }

  out.survivors.reserve(table.live());
  table.ForEachLive([&](uint32_t, const CandidateState& c) {
    out.survivors.push_back(
        {inverted_->SetAt(c.rank), c.partial, c.row_sum, c.remaining()});
  });
  out.last_sim = last_sim;
  stats->size_cut = std::max(stats->size_cut, cut_size);
  stats->postprocess_sets += out.survivors.size();
  stats->memory.AddPeak("refinement.scratch", table.MemoryUsageBytes());
  stats->memory.AddPeak("refinement.llb", out.llb.MemoryUsageBytes());
  return out;
}

}  // namespace koios::core
