// MinHash-LSH streaming index for Jaccard element similarity — the second
// plug-in index the paper names for the token stream ("the Faiss Index or
// minhash LSH can be plugged into the algorithm", §IV). Approximate: with
// b bands of r rows, a pair with Jaccard j collides in some band with
// probability 1 - (1 - j^r)^b; recall at the α of interest is tuned via
// (b, r).
//
// Probing is batched through BatchedNeighborIndex: a query's candidate set
// is the union of its bucket in every band, collected into one contiguous
// id batch and scored with a single SimilarityFunction::SimilarityBatch
// call (JaccardQGramSimilarity overrides it with an interned-gram-id merge
// kernel), then α-filtered and streamed with the shared lazy-ordering
// cursor. Scores stay exact Jaccard values — only candidate generation is
// approximate.
//
// Thread-safety: immutable after construction (concurrent queries each
// probe their own session, see SimilarityIndex); the band tables never
// change, so CollectCandidates is safe from concurrent Prewarm calls and
// sessions.
#ifndef KOIOS_SIM_MINHASH_INDEX_H_
#define KOIOS_SIM_MINHASH_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "koios/sim/batched_neighbor_index.h"
#include "koios/sim/jaccard_qgram_similarity.h"

namespace koios::sim {

struct MinHashIndexSpec {
  size_t num_bands = 16;     // b — more bands => higher recall
  size_t rows_per_band = 4;  // r — more rows  => higher precision
  uint64_t seed = 17;
};

class MinHashIndex : public BatchedNeighborIndex {
 public:
  /// Indexes `vocabulary` by the MinHash of each token's q-gram set (the
  /// feature sets come from `sim`, which also scores each probe's candidate
  /// batch so results are exact Jaccard values).
  MinHashIndex(std::vector<TokenId> vocabulary,
               const JaccardQGramSimilarity* sim, const MinHashIndexSpec& spec);

  /// Theoretical collision probability of a pair with Jaccard `j`.
  double CollisionProbability(double j) const;

  size_t MemoryUsageBytes() const override;

 protected:
  /// The union of the query's bucket in every band.
  void CollectCandidates(TokenId q, std::vector<TokenId>* out) const override;

 private:
  /// MinHash signature of a gram set: num_bands * rows_per_band minima.
  std::vector<uint64_t> SignatureOf(const std::vector<std::string>& grams) const;
  /// Bucket key of one band of a signature.
  uint64_t BandKey(const std::vector<uint64_t>& signature, size_t band) const;

  std::vector<TokenId> vocabulary_;
  const JaccardQGramSimilarity* jaccard_;
  MinHashIndexSpec spec_;
  std::vector<uint64_t> hash_seeds_;  // one per signature row
  std::vector<std::unordered_map<uint64_t, std::vector<TokenId>>> bands_;
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_MINHASH_INDEX_H_
