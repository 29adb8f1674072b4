#include "koios/sim/cosine_similarity.h"

#include <cassert>

namespace koios::sim {

void CosineEmbeddingSimilarity::SimilarityBatch(TokenId q,
                                                std::span<const TokenId> targets,
                                                std::span<Score> out) const {
  assert(out.size() == targets.size());
  store_->CosineBatch(q, targets, out);
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == q) {
      out[i] = 1.0;  // Def. 1: sim(x, x) = 1 even when out-of-vocabulary.
    } else if (out[i] <= 0.0) {
      out[i] = 0.0;
    } else if (out[i] > 1.0) {
      out[i] = 1.0;
    }
  }
}

void CosineEmbeddingSimilarity::SimilarityBatchMulti(
    std::span<const TokenId> queries, std::span<const TokenId> targets,
    std::span<Score> out) const {
  assert(out.size() == queries.size() * targets.size());
  store_->CosineMultiBatch(queries, targets, out);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Score* row = out.data() + qi * targets.size();
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      if (targets[ti] == queries[qi]) {
        row[ti] = 1.0;  // Def. 1: sim(x, x) = 1 even when out-of-vocabulary.
      } else if (row[ti] <= 0.0) {
        row[ti] = 0.0;
      } else if (row[ti] > 1.0) {
        row[ti] = 1.0;
      }
    }
  }
}

}  // namespace koios::sim
