// Cosine similarity of token embeddings — the similarity function used in
// the paper's experiments (FastText vectors; here the synthetic store).
#ifndef KOIOS_SIM_COSINE_SIMILARITY_H_
#define KOIOS_SIM_COSINE_SIMILARITY_H_

#include "koios/embedding/embedding_store.h"
#include "koios/sim/similarity.h"

namespace koios::sim {

/// sim(a, b) = max(0, cosine(emb(a), emb(b))); identical tokens score 1
/// even when out-of-vocabulary (Def. 1 requires sim(x, x) = 1, and the
/// paper's OOV handling depends on it).
class CosineEmbeddingSimilarity : public SimilarityFunction {
 public:
  explicit CosineEmbeddingSimilarity(const embedding::EmbeddingStore* store)
      : store_(store) {}

  Score Similarity(TokenId a, TokenId b) const override {
    if (a == b) return 1.0;
    const double c = store_->Cosine(a, b);
    if (c <= 0.0) return 0.0;
    return c > 1.0 ? 1.0 : c;
  }

  /// Batched path: one dense CosineBatch kernel call over the embedding
  /// matrix, then the same clamping as the pairwise overload. ~|targets|
  /// fewer virtual dispatches and row lookups per query token.
  void SimilarityBatch(TokenId q, std::span<const TokenId> targets,
                       std::span<Score> out) const override;

  /// Blocked multi-query path via CosineMultiBatch: each target row is
  /// read once per 4-query block, the main lever behind the batched
  /// cursor-construction speedup.
  void SimilarityBatchMulti(std::span<const TokenId> queries,
                            std::span<const TokenId> targets,
                            std::span<Score> out) const override;

  const embedding::EmbeddingStore& store() const { return *store_; }

 private:
  const embedding::EmbeddingStore* store_;
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_COSINE_SIMILARITY_H_
