// The post-processing phase of Koios (paper §VI, Algorithm 2): verify the
// surviving candidates with exact bipartite matching, skipping it whenever
// the No-EM filter (Lemma 7) certifies membership and aborting it whenever
// the matcher's bound drops below θlb (EM early termination, Lemma 8).
#ifndef KOIOS_CORE_POSTPROCESS_H_
#define KOIOS_CORE_POSTPROCESS_H_

#include <span>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/core/search_types.h"
#include "koios/index/set_collection.h"
#include "koios/matching/hungarian.h"

namespace koios::core {

/// One exact matching (Def. 1) of the query against `candidate`, run in
/// the calling thread's scratch: the weight matrix EdgeCache builds and a
/// matching::SparseMatcher, both reused by every matching the thread runs.
/// PostProcessor::Run, its one caller, runs it for post-processing, result
/// verification and the tie sweep. Lemma 8 early termination is armed
/// when `prune_threshold` >= 0. Adds 1 to `*reuses` when the thread's
/// matcher had solved before (the em_workspace_reuses stat).
matching::MatchResult ExactMatch(const EdgeCache& cache,
                                 std::span<const TokenId> candidate,
                                 double prune_threshold, size_t* reuses);

class PostProcessor {
 public:
  /// `ctx` may be null (phase-level tests): its GlobalThreshold is the
  /// cross-partition θlb, its deadline/cancellation is polled before every
  /// exact matching (throwing SearchAborted).
  PostProcessor(const index::SetCollection* sets, const EdgeCache* cache,
                const SearchParams& params, SearchContext* ctx);

  /// Consumes the refinement output and returns the top-k result entries in
  /// non-increasing score order.
  std::vector<ResultEntry> Run(RefinementOutput refinement, SearchStats* stats);

 private:
  Score ThetaLb(Score local) const;

  const index::SetCollection* sets_;
  const EdgeCache* cache_;
  SearchParams params_;
  SearchContext* ctx_;
  GlobalThreshold* global_theta_;  // &ctx_->global_theta(), null without ctx
};

}  // namespace koios::core

#endif  // KOIOS_CORE_POSTPROCESS_H_
