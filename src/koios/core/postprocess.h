// The post-processing phase of Koios (paper §VI, Algorithm 2): verify the
// surviving candidates with exact bipartite matching, skipping it whenever
// the No-EM filter (Lemma 7) certifies membership and aborting it whenever
// the matcher's bound drops below θlb (EM early termination, Lemma 8).
#ifndef KOIOS_CORE_POSTPROCESS_H_
#define KOIOS_CORE_POSTPROCESS_H_

#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/core/search_types.h"
#include "koios/index/set_collection.h"

namespace koios::core {

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
