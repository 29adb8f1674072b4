#include "koios/sim/exact_knn_index.h"

#include <utility>

namespace koios::sim {

ExactKnnIndex::ExactKnnIndex(std::vector<TokenId> vocabulary,
                             const SimilarityFunction* sim)
    : BatchedNeighborIndex(sim), vocabulary_(std::move(vocabulary)) {}

size_t ExactKnnIndex::MemoryUsageBytes() const {
  return vocabulary_.capacity() * sizeof(TokenId) +
         BatchedNeighborIndex::MemoryUsageBytes();
}

}  // namespace koios::sim
