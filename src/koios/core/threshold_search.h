// Threshold-based semantic overlap search: return *every* set C with
// SO(Q, C) >= theta.
//
// The paper frames threshold search as what existing fuzzy engines
// (SilkMoth, Fast-Join) solve, and top-k as the harder problem because θ*k
// is unknown upfront (§VIII-B). The converse direction is easy inside the
// Koios framework — with a *fixed* threshold every filter applies
// unchanged, just without a running top-k list:
//   * refinement prunes candidates whose retained-row-maxima bound falls
//     below θ (the lazy iUB filter of §V, as in RefinementPhase);
//   * post-processing skips verification when the greedy lower bound
//     already clears θ, and early-terminates exact matching at θ.
// This module is a user-facing feature: joinability predicates want
// thresholds, not ranks. (The SilkMoth comparison bench takes its θ*k from
// the Koios top-k result, not from here.)
#ifndef KOIOS_CORE_THRESHOLD_SEARCH_H_
#define KOIOS_CORE_THRESHOLD_SEARCH_H_

#include <span>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::core {

struct ThresholdParams {
  /// Matching-score threshold θ (> 0).
  Score theta = 1.0;
  /// Element similarity threshold α (> 0).
  Score alpha = 0.8;
  /// Skip exact matching when the greedy lower bound clears θ. The
  /// reported score is then the lower bound unless `verify_scores`.
  bool use_lb_admission = true;
  /// Exact-matching early termination at θ.
  bool use_em_early_termination = true;
  /// Replace lower-bound scores of admitted sets with their exact SO.
  bool verify_scores = true;
};

class ThresholdSearcher {
 public:
  /// Both referents must outlive the searcher.
  ThresholdSearcher(const index::SetCollection* sets,
                    const sim::SimilarityIndex* index);

  /// All sets with SO(Q, C) >= theta, in non-increasing score order.
  /// Reentrant, like KoiosSearcher::Search.
  std::vector<ResultEntry> Search(std::span<const TokenId> query,
                                  const ThresholdParams& params,
                                  SearchStats* stats = nullptr) const;

 private:
  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  index::InvertedIndex inverted_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_THRESHOLD_SEARCH_H_
