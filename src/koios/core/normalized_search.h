// Top-k search under *normalized* semantic overlap,
//
//   NSO(Q, C) = SO(Q, C) / min(|Q|, |C|)  ∈ [0, 1],
//
// the semantic analogue of the containment-style normalizations used by
// the vanilla-overlap join-search systems the paper builds on (JOSIE, LSH
// Ensemble). Normalization changes the *ranking*: small sets that match
// the query almost completely can outrank large sets with more absolute
// overlap — exactly what joinability scoring wants.
//
// All Koios bounds divide through per candidate: LB/cap and UB/cap bracket
// NSO for cap = min(|Q|, |C|). The bucketized filter of §V does not apply
// (its per-bucket cutoff is only uniform for an *absolute* threshold), so
// refinement uses per-candidate bound checks — the trade-off the paper's
// §V motivates, made concrete.
#ifndef KOIOS_CORE_NORMALIZED_SEARCH_H_
#define KOIOS_CORE_NORMALIZED_SEARCH_H_

#include <span>

#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::core {

/// Exact normalized semantic overlap (oracle path).
Score NormalizedOverlap(std::span<const TokenId> query,
                        std::span<const TokenId> candidate,
                        const sim::SimilarityFunction& sim, Score alpha);

class NormalizedSearcher {
 public:
  /// Both referents must outlive the searcher.
  NormalizedSearcher(const index::SetCollection* sets,
                     const sim::SimilarityIndex* index);

  /// Top-k sets by NSO; scores in the result are normalized overlaps.
  /// Reentrant, like KoiosSearcher::Search.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params) const;

 private:
  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  index::InvertedIndex inverted_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_NORMALIZED_SEARCH_H_
