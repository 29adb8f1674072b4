// Random-hyperplane (SimHash) LSH index over token embeddings — the
// approximate alternative to the exact index that the paper notes can be
// plugged into the token stream ("the Faiss Index or minhash LSH can be
// plugged into the algorithm", §IV). With an approximate index Koios'
// results are exact *with respect to the neighbors the index returns*;
// recall is tunable via the number of tables.
//
// Probing is batched through BatchedNeighborIndex: a query's candidate set
// is the union of its bucket in every table, collected into one contiguous
// id batch and scored with a single SimilarityFunction::SimilarityBatch
// kernel call (one virtual dispatch per query instead of one per
// candidate), then α-filtered and streamed with the shared lazy-ordering
// cursor. Prewarm builds a whole query's cursors in multi-query blocks
// over the block's candidate union — bucket probes of similar query
// tokens overlap heavily, so the union amortizes target-row reads.
//
// Thread-safety: immutable after construction (concurrent queries each
// probe their own session, see SimilarityIndex); the hash tables never
// change, so CollectCandidates is safe from concurrent Prewarm calls and
// sessions.
#ifndef KOIOS_SIM_LSH_INDEX_H_
#define KOIOS_SIM_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "koios/embedding/embedding_store.h"
#include "koios/sim/batched_neighbor_index.h"

namespace koios::sim {

struct LshIndexSpec {
  size_t num_tables = 8;        // more tables => higher recall
  size_t bits_per_table = 12;   // longer keys => higher precision
  uint64_t seed = 7;
};

class CosineLshIndex : public BatchedNeighborIndex {
 public:
  /// Indexes the covered subset of `vocabulary`; `sim` scores each probe's
  /// candidate batch (so any downstream clamping matches the exact path).
  CosineLshIndex(std::vector<TokenId> vocabulary,
                 const embedding::EmbeddingStore* store,
                 const SimilarityFunction* sim, const LshIndexSpec& spec);

  size_t MemoryUsageBytes() const override;

 protected:
  /// The union of the query's bucket in every table (empty for OOV query
  /// tokens, which only match identically via the stream's self-match).
  void CollectCandidates(TokenId q, std::vector<TokenId>* out) const override;

 private:
  uint64_t SignatureOf(std::span<const float> vec, size_t table) const;

  std::vector<TokenId> vocabulary_;
  const embedding::EmbeddingStore* store_;
  LshIndexSpec spec_;
  // hyperplanes_[table * bits + bit] is a dim-sized normal vector.
  std::vector<std::vector<float>> hyperplanes_;
  // One bucket map per table: signature -> token list.
  std::vector<std::unordered_map<uint64_t, std::vector<TokenId>>> tables_;
};

}  // namespace koios::sim

#endif  // KOIOS_SIM_LSH_INDEX_H_
