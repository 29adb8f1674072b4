// Many-to-one semantic overlap — the extension the paper sketches as
// future work (§X): allow several query elements to map to the same
// candidate element ("United States of America" and "United States" both
// mapping to "USA"), covering noise and spelling variation *within* the
// query.
//
// Dropping the injectivity constraint makes the measure separable:
//
//   SO₁ₙ(Q, C) = Σ_{q ∈ Q} max_{c ∈ C} simα(q, c)
//
// because each query element independently takes its best α-surviving
// partner. Consequences exploited here:
//   * no bipartite matching — the exact score is computable in O(E) from
//     the α-surviving edges;
//   * the Koios refinement machinery computes it *incrementally*: the
//     retained-row-maxima bound of the 1:1 engine (CandidateTable::AddRow
//     with capacity |Q|) is exactly this measure once the stream is
//     exhausted, so the "upper bound" converges to the true score and no
//     post-processing phase is needed at all;
//   * SO(Q, C) ≤ SO₁ₙ(Q, C) always (any 1:1 matching is a many-to-one
//     mapping), so the 1:1 measure's results are a subset re-scoring.
#ifndef KOIOS_CORE_MANY_TO_ONE_H_
#define KOIOS_CORE_MANY_TO_ONE_H_

#include <span>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::core {

/// Exact many-to-one semantic overlap of two sets (oracle path, used by
/// tests and small workloads).
Score ManyToOneOverlap(std::span<const TokenId> query,
                       std::span<const TokenId> candidate,
                       const sim::SimilarityFunction& sim, Score alpha);

/// Top-k search under the many-to-one measure. Streams pairs once and
/// accumulates per-candidate row maxima; prunes with the same lazy iUB
/// filter as the 1:1 engine (whose bound is *tight* here).
class ManyToOneSearcher {
 public:
  /// Both referents must outlive the searcher.
  ManyToOneSearcher(const index::SetCollection* sets,
                    const sim::SimilarityIndex* index);

  /// Reentrant, like KoiosSearcher::Search.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params) const;

 private:
  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  index::InvertedIndex inverted_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_MANY_TO_ONE_H_
