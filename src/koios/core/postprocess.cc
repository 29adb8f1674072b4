#include "koios/core/postprocess.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <span>
#include <unordered_map>

#include "koios/matching/sparse_matcher.h"
#include "koios/util/top_k_list.h"
#include "koios/util/trace_recorder.h"

namespace koios::core {

namespace {

struct Item {
  SetId set = kInvalidSet;
  Score lb = 0.0;
  Score ub = 0.0;
  bool checked = false;  // SO known exactly or membership certified (No-EM)
  bool exact = false;    // lb == ub == SO
};

// Descending (ub, set) ordering for the alive window.
struct ByUbDesc {
  bool operator()(const std::pair<Score, SetId>& a,
                  const std::pair<Score, SetId>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};

// Per-thread exact-matching scratch: the matrix allocation and the
// matcher's solve arrays survive across every candidate a thread verifies
// (post-processing, result verification and the tie sweep alike).
struct EmScratch {
  matching::WeightMatrix matrix{0, 0};
  std::vector<uint32_t> rows, cols;
  matching::SparseMatcher matcher;
};

// One exact matching (Def. 1) of the query against `candidate`, run in the
// calling thread's EmScratch. PostProcessor::Run, its one caller, runs it
// for post-processing, result verification and the tie sweep. Lemma 8
// early termination is armed when `prune_threshold` >= 0. Adds 1 to
// `*reuses` when the thread's matcher had solved before (the
// em_workspace_reuses stat).
matching::MatchResult ExactMatch(const EdgeCache& cache,
                                 std::span<const TokenId> candidate,
                                 double prune_threshold, size_t* reuses) {
  thread_local EmScratch scratch;
  if (scratch.matcher.solve_count() > 0) ++*reuses;
  cache.BuildMatrixInto(candidate, &scratch.rows, &scratch.cols,
                        &scratch.matrix);
  return scratch.matcher.Solve(scratch.matrix, prune_threshold);
}

}  // namespace

PostProcessor::PostProcessor(const index::SetCollection* sets,
                             const EdgeCache* cache,
                             const SearchParams& params, SearchContext* ctx)
    : sets_(sets),
      cache_(cache),
      params_(params),
      ctx_(ctx),
      global_theta_(ctx != nullptr ? &ctx->global_theta() : nullptr) {}

Score PostProcessor::ThetaLb(Score local) const {
  if (global_theta_ == nullptr) return local;
  return std::max(local, global_theta_->Get());
}

// Invariant-based formulation of Algorithm 2. All alive candidates live in
// one set ordered by descending upper bound. θub is the k-th largest alive
// upper bound. The top-k-by-UB *window* is the result candidate list (the
// paper's Lub); everything below is the paper's Qub. The loop ends when
// every window entry is checked:
//  * an EM'd entry C in the window has SO(C) = ub(C) >= ub(X) >= SO(X) for
//    any alive X outside the window, and
//  * a No-EM entry C has LB(C) >= θub >= ub(X) >= SO(X)  (Lemma 7),
// so the window provably dominates everything else; pruned sets were
// certified SO < θlb <= θ*k earlier.
std::vector<ResultEntry> PostProcessor::Run(RefinementOutput refinement,
                                            SearchStats* stats) {
  auto llb = std::move(refinement.llb);

  std::unordered_map<SetId, Item> items;
  std::set<std::pair<Score, SetId>, ByUbDesc> alive;  // (ub, set), desc
  items.reserve(refinement.survivors.size());
  for (const Survivor& survivor : refinement.survivors) {
    Item item;
    item.set = survivor.set;
    item.lb = survivor.partial_score;
    // Slack ends where the stream did: 0 after a drain to α (no α-edge
    // left), the stop similarity when the θlb feedback loop ended the
    // stream early.
    item.ub = survivor.UpperBound(refinement.ub_slack);
    items.emplace(item.set, item);
    alive.insert({item.ub, item.set});
  }
  stats->memory.AddPeak(
      "postprocess.alive",
      alive.size() * (sizeof(std::pair<Score, SetId>) + 4 * sizeof(void*)));
  stats->memory.AddPeak("postprocess.items", items.size() * sizeof(Item));

  auto prune_below_theta = [&] {
    const Score theta_lb = ThetaLb(llb.Bottom());
    while (!alive.empty()) {
      const auto lowest = std::prev(alive.end());  // smallest ub
      if (lowest->first >= theta_lb - kScoreEps) break;
      items.erase(lowest->second);
      alive.erase(lowest);
      ++stats->postprocess_ub_pruned;
    }
  };

  while (!alive.empty()) {
    // Deadline/cancellation poll once per window round, i.e. at least once
    // per exact matching (the expensive unit of this phase).
    if (ctx_ != nullptr) ctx_->CheckCancelled();
    prune_below_theta();

    // The window: first min(k, |alive|) entries by descending ub. θub is
    // the window's smallest ub (0 while fewer than k alive, which makes
    // No-EM admit everything — correct, since then every alive set is in
    // the top-k).
    Score theta_ub = 0.0;
    {
      auto it = alive.begin();
      for (size_t i = 0; i + 1 < params_.k && it != alive.end(); ++i) ++it;
      if (it != alive.end() && alive.size() >= params_.k) theta_ub = it->first;
    }

    // Find the first unchecked window entry (descending ub), applying
    // No-EM to the ones before it.
    SetId next = kInvalidSet;
    bool admitted_any = false;
    {
      auto it = alive.begin();
      for (size_t i = 0; i < params_.k && it != alive.end(); ++i, ++it) {
        Item& item = items[it->second];
        if (item.checked) continue;
        if (params_.use_no_em_filter && item.lb >= theta_ub - kScoreEps) {
          item.checked = true;
          ++stats->no_em_skipped;
          admitted_any = true;
          continue;
        }
        next = item.set;
        break;
      }
    }
    if (next == kInvalidSet) {
      if (admitted_any) continue;  // window changed; re-evaluate
      break;                       // window fully checked — done
    }

    // Exact matching, early-terminated against the current θlb.
    const Score prune_threshold =
        params_.use_em_early_termination ? ThetaLb(llb.Bottom()) : -1.0;
    KOIOS_TRACE_SPAN("search.em_batch");
    const matching::MatchResult r =
        ExactMatch(*cache_, sets_->Tokens(next), prune_threshold,
                   &stats->em_workspace_reuses);
    Item& item = items[next];
    alive.erase({item.ub, item.set});
    if (r.early_terminated) {
      // SO < θlb certified mid-matching: cannot be in the top-k.
      ++stats->em_early_terminated;
      items.erase(next);
      continue;
    }
    ++stats->em_computed;
    item.lb = item.ub = r.score;
    item.exact = true;
    item.checked = true;
    alive.insert({item.ub, item.set});  // repositions by the exact score
    llb.Offer(next, r.score);
    if (global_theta_ != nullptr) global_theta_->Publish(llb.Bottom());
  }

  // Harvest the window; optionally verify No-EM admissions so every
  // reported score is the exact SO (needed for cross-partition merging).
  std::vector<ResultEntry> result;
  auto harvest = [&](const Item& item) {
    ResultEntry entry;
    entry.set = item.set;
    entry.exact = item.exact;
    entry.score = item.exact ? item.ub : item.lb;
    if (!item.exact && params_.verify_result_scores) {
      entry.score = ExactMatch(*cache_, sets_->Tokens(item.set),
                               /*prune_threshold=*/-1.0,
                               &stats->em_workspace_reuses)
                        .score;
      entry.exact = true;
      ++stats->result_verification_ems;
    }
    result.push_back(entry);
  };
  auto it = alive.begin();
  for (size_t i = 0; i < params_.k && it != alive.end(); ++i, ++it) {
    harvest(items[it->second]);
  }

  // Canonical tie resolution (verify mode only — without exact scores a
  // cross-run tie is not even well defined). The window above was chosen
  // by UPPER BOUNDS: a No-EM admission keeps its inflated refinement
  // bound while an EM'd set is repositioned to its exact score, so WHICH
  // of several sets tied at the k-th exact score made the window depends
  // on processing history — and serial and sharded runs have different
  // histories. The bit-identity contract (the same top-k at every shard
  // and thread count) needs one canonical answer:
  // smallest ids win. Sweep the remaining alive sets that could still
  // reach the k-th exact score (SO <= ub bounds the sweep; early
  // termination against θk keeps the non-tied ones cheap) and let the
  // final (score desc, id asc) sort pick canonically.
  if (params_.verify_result_scores && result.size() >= params_.k &&
      !result.empty()) {
    Score theta_k = result.front().score;
    for (const ResultEntry& e : result) theta_k = std::min(theta_k, e.score);
    for (; it != alive.end() && it->first >= theta_k - kScoreEps; ++it) {
      const Item& item = items[it->second];
      if (item.exact) {
        harvest(item);
        continue;
      }
      const matching::MatchResult r =
          ExactMatch(*cache_, sets_->Tokens(item.set), theta_k - kScoreEps,
                     &stats->em_workspace_reuses);
      ++stats->result_verification_ems;
      if (r.early_terminated) continue;  // certified below every tie
      ResultEntry entry;
      entry.set = item.set;
      entry.score = r.score;
      entry.exact = true;
      result.push_back(entry);
    }
  }

  std::sort(result.begin(), result.end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.set < b.set;
            });
  if (result.size() > params_.k) result.resize(params_.k);
  return result;
}

}  // namespace koios::core
