// Exact streaming nearest-neighbor index over the repository vocabulary.
// Plays the role of the Faiss index in the paper (§VIII-A3): given a query
// token, it yields vocabulary tokens in non-increasing similarity order,
// stopping below α. Being exact, it preserves Koios' exactness guarantee
// ("Koios returns an exact solution as long as the index returns exact
// results", §VIII-E).
//
// All probing machinery (batched kernel scan of the whole vocabulary, α
// filter, lazy chunked ordering, α-keyed cursor cache, blocked Prewarm,
// probe sessions) lives in BatchedNeighborIndex; this class is its public
// constructor.
//
// Thread-safety: immutable after construction; concurrent queries each
// probe their own session (see SimilarityIndex).
#ifndef KOIOS_SIM_EXACT_KNN_INDEX_H_
#define KOIOS_SIM_EXACT_KNN_INDEX_H_

#include <utility>
#include <vector>

#include "koios/sim/batched_neighbor_index.h"

namespace koios::sim {

class ExactKnnIndex final : public BatchedNeighborIndex {
 public:
  /// `vocabulary`: the distinct tokens of the repository `D`.
  /// `sim`: any symmetric similarity function (cosine, q-gram Jaccard, ...).
  ExactKnnIndex(std::vector<TokenId> vocabulary, const SimilarityFunction* sim)
      : BatchedNeighborIndex(std::move(vocabulary), sim) {}
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_EXACT_KNN_INDEX_H_
