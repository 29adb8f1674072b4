// Jaccard similarity on character q-gram sets of tokens — the syntactic
// element similarity used for the fuzzy-overlap comparison against SilkMoth
// (paper §VIII-B) and in Fig. 1's fuzzy example.
//
// Grams are interned into dense uint32 ids at construction, so similarity
// is a linear merge intersection over sorted id arrays (integer compares)
// instead of string compares. SimilarityBatch runs that merge kernel over
// a contiguous candidate batch with the query's gram ids hot in cache —
// the path ExactKnnIndex's cold cursor builds score through.
#ifndef KOIOS_SIM_JACCARD_QGRAM_SIMILARITY_H_
#define KOIOS_SIM_JACCARD_QGRAM_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "koios/sim/similarity.h"
#include "koios/text/dictionary.h"

namespace koios::sim {

/// Precomputes sorted q-gram sets (strings and interned ids) for every
/// dictionary token; Similarity is a linear merge intersection over ids.
class JaccardQGramSimilarity : public SimilarityFunction {
 public:
  JaccardQGramSimilarity(const text::Dictionary* dict, size_t q = 3);

  Score Similarity(TokenId a, TokenId b) const override;

  /// Batched merge-intersection kernel: one virtual call scores the whole
  /// candidate batch against `q`'s id array (identical values to the
  /// pairwise overload — both divide the same integer counts).
  void SimilarityBatch(TokenId q, std::span<const TokenId> targets,
                       std::span<Score> out) const override;

  /// Multi-query kernel over a per-block gram-id inverted list: the block's
  /// target gram ids are transposed once into CSR postings
  /// (gram id → target positions), then each query walks its own sorted id
  /// array against the sorted posting keys — one merge per query instead of
  /// one merge per (query, target) pair, with cost proportional to the
  /// *matching* grams. This is the path ExactKnnIndex's prewarm blocks and
  /// the feedback loop's matrix completion score through (identical values
  /// to the pairwise overload).
  void SimilarityBatchMulti(std::span<const TokenId> queries,
                            std::span<const TokenId> targets,
                            std::span<Score> out) const override;

  size_t q() const { return q_; }
  /// Sorted q-grams of a token (for SilkMoth's signature machinery).
  const std::vector<std::string>& GramsOf(TokenId t) const;

  size_t MemoryUsageBytes() const override;

 private:
  /// Sorted interned gram ids of token `t` (contiguous flat storage — the
  /// batch kernel walks candidate id arrays back-to-back).
  std::span<const uint32_t> IdsOf(TokenId t) const {
    return {flat_ids_.data() + id_offsets_[t],
            id_offsets_[t + 1] - id_offsets_[t]};
  }

  const text::Dictionary* dict_;
  size_t q_;
  std::vector<std::vector<std::string>> grams_;  // by TokenId, sorted
  std::vector<uint32_t> flat_ids_;               // all tokens' sorted ids
  std::vector<size_t> id_offsets_;               // by TokenId, size + 1
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_JACCARD_QGRAM_SIMILARITY_H_
