// Exact streaming nearest-neighbor index over the repository vocabulary.
// Plays the role of the Faiss index in the paper (§VIII-A3): given a query
// token, it yields vocabulary tokens in non-increasing similarity order,
// stopping below α. Being exact, it preserves Koios' exactness guarantee
// ("Koios returns an exact solution as long as the index returns exact
// results", §VIII-E).
//
// All probing machinery (batched kernel scan, α filter, lazy chunked
// ordering, α-keyed cursor cache, blocked Prewarm, probe sessions) lives in
// BatchedNeighborIndex; this class only defines the candidate set, which
// for the exact index is the ENTIRE vocabulary — shared by every query, so
// the prewarm block path feeds it straight to SimilarityBatchMulti.
//
// Thread-safety: immutable after construction; concurrent queries each
// probe their own session (see SimilarityIndex).
#ifndef KOIOS_SIM_EXACT_KNN_INDEX_H_
#define KOIOS_SIM_EXACT_KNN_INDEX_H_

#include <cstddef>
#include <vector>

#include "koios/sim/batched_neighbor_index.h"

namespace koios::sim {

class ExactKnnIndex : public BatchedNeighborIndex {
 public:
  /// `vocabulary`: the distinct tokens of the repository `D`.
  /// `sim`: any symmetric similarity function (cosine, q-gram Jaccard, ...).
  ExactKnnIndex(std::vector<TokenId> vocabulary, const SimilarityFunction* sim);

  size_t vocabulary_size() const { return vocabulary_.size(); }

  /// Exact full-vocabulary scan: safe for the stream-feedback loop's
  /// on-demand matrix completion (see SimilarityIndex::exact_neighbors).
  bool exact_neighbors() const override { return true; }

  size_t MemoryUsageBytes() const override;

 protected:
  /// Every query scans the same full vocabulary (so the base never calls
  /// CollectCandidates).
  const std::vector<TokenId>* SharedCandidates() const override {
    return &vocabulary_;
  }

 private:
  std::vector<TokenId> vocabulary_;
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_EXACT_KNN_INDEX_H_
