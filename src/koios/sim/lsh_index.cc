#include "koios/sim/lsh_index.h"

#include <algorithm>
#include <cassert>

#include "koios/util/rng.h"

namespace koios::sim {

CosineLshIndex::CosineLshIndex(std::vector<TokenId> vocabulary,
                               const embedding::EmbeddingStore* store,
                               const SimilarityFunction* sim,
                               const LshIndexSpec& spec)
    : BatchedNeighborIndex(sim),
      vocabulary_(std::move(vocabulary)),
      store_(store),
      spec_(spec) {
  assert(spec_.bits_per_table <= 64);
  SortUniqueVocabulary(&vocabulary_);  // bucket lists must come out ascending
  util::Rng rng(spec_.seed);
  const size_t dim = store_->dim();
  hyperplanes_.resize(spec_.num_tables * spec_.bits_per_table);
  for (auto& h : hyperplanes_) {
    h.resize(dim);
    for (auto& x : h) x = static_cast<float>(rng.NextGaussian());
  }
  tables_.resize(spec_.num_tables);
  for (TokenId t : vocabulary_) {
    if (!store_->Has(t)) continue;  // OOV tokens only match identically
    const auto vec = store_->VectorOf(t);
    for (size_t table = 0; table < spec_.num_tables; ++table) {
      tables_[table][SignatureOf(vec, table)].push_back(t);
    }
  }
}

uint64_t CosineLshIndex::SignatureOf(std::span<const float> vec,
                                     size_t table) const {
  uint64_t sig = 0;
  const size_t base = table * spec_.bits_per_table;
  for (size_t bit = 0; bit < spec_.bits_per_table; ++bit) {
    // The vectorized kernel, not a scalar loop: the compiler cannot
    // reorder a scalar double reduction on its own, and signature bits
    // only consume the dot's sign, so kernel-vs-scalar differences
    // (~1e-16 relative) are immaterial.
    const double dot =
        embedding::EmbeddingStore::Dot(hyperplanes_[base + bit], vec);
    sig = (sig << 1) | (dot >= 0.0 ? 1u : 0u);
  }
  return sig;
}

void CosineLshIndex::CollectCandidates(TokenId q,
                                       std::vector<TokenId>* out) const {
  if (!store_->Has(q)) return;  // OOV query token: no neighbors
  const auto vec = store_->VectorOf(q);
  std::vector<const std::vector<TokenId>*> hits;
  hits.reserve(spec_.num_tables);
  for (size_t table = 0; table < spec_.num_tables; ++table) {
    auto it = tables_[table].find(SignatureOf(vec, table));
    if (it != tables_[table].end()) hits.push_back(&it->second);
  }
  UnionBuckets(hits, out);
}

size_t CosineLshIndex::MemoryUsageBytes() const {
  size_t bytes = vocabulary_.capacity() * sizeof(TokenId);
  for (const auto& h : hyperplanes_) bytes += h.capacity() * sizeof(float);
  for (const auto& table : tables_) {
    for (const auto& [_, bucket] : table) {
      bytes += sizeof(uint64_t) + bucket.capacity() * sizeof(TokenId);
    }
  }
  return bytes + BatchedNeighborIndex::MemoryUsageBytes();
}

}  // namespace koios::sim
